// Runtime options of the distributed generators.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "graph/edge_list.h"
#include "mps/world_options.h"
#include "partition/partition.h"
#include "util/types.h"

namespace pagen::obs {
class Session;
}

namespace pagen::core {

/// Thrown out of generate() when ParallelOptions::cancel_requested fires.
/// Every rank checks the hook in its event-loop phases (the mps rank in
/// core/engine/mps_engine.cpp), so all ranks unwind cooperatively — the
/// world tears down through the mps abort path instead of wedging peers
/// that still wait for answers — and mps::run_ranks rethrows this root
/// cause after all rank threads join.
class Cancelled : public std::runtime_error {
 public:
  Cancelled() : std::runtime_error("generation cancelled") {}
};

struct ParallelOptions {
  /// Which registered generation engine runs the job (core/engine/engine.h):
  /// "mps" is the paper's request/resolved protocol, "commfree" the
  /// communication-free pseudorandomization backend, "seq-copy"/"seq-bb"
  /// the sequential references. generate() rejects unknown names and
  /// capability mismatches (e.g. checkpoint_dir on an engine without
  /// checkpoint support) with a CheckError.
  std::string engine = "mps";

  /// Number of ranks (the paper's P). Ranks are runtime threads and may
  /// exceed hardware cores (DESIGN.md §2).
  int ranks = 4;

  /// Node partitioning scheme (Section 3.5).
  partition::Scheme scheme = partition::Scheme::kRrp;

  /// Override the scheme with an arbitrary Partition (e.g. block-cyclic,
  /// partition/block_cyclic.h). Must cover exactly `n` nodes over exactly
  /// `ranks` parts. When set, `scheme` is ignored.
  std::shared_ptr<const partition::Partition> custom_partition;

  /// Items per (destination, tag) buffer before an automatic flush
  /// ("message buffering", Section 3.5). 1 disables aggregation.
  std::size_t buffer_capacity = 256;

  /// Own nodes processed between message pumps.
  std::size_t node_batch = 1024;

  /// Force-flush resolved buffers after processing every received batch —
  /// the paper's deadlock-avoidance rule for RRP, applied in one place:
  /// MpsRank::flush_after_batch() (core/engine/mps_engine.cpp). Always
  /// safe; switchable only so the ablation bench can quantify its cost
  /// under CP schemes.
  bool flush_resolved_after_batch = true;

  /// Collect the generated edges into one EdgeList on return. Disable for
  /// throughput runs that only need load statistics.
  bool gather_edges = true;

  /// Also return each rank's local edges separately (ParallelResult::shards)
  /// — the in-memory input of the distributed analytics passes
  /// (core/distributed_degree.h). Persist shards with store_dir instead.
  bool keep_shards = false;

  /// Observability session (src/obs/). Non-owning; must have at least
  /// `ranks` rank observers and outlive the generate call. When set, every
  /// rank emits phase spans (generate / drain / termination), runtime
  /// events, and metrics into session->rank(r), and the driver thread's
  /// partition construction is traced on the session's driver track. Null
  /// (the default) keeps the uninstrumented hot path.
  obs::Session* obs = nullptr;

  /// The one streaming sink: "generate on the fly and analyze without disk
  /// I/O" (Section 3.2), with gather_edges = false and no edge storage at
  /// all. Invoked on the generating rank's thread with a span of exactly
  /// edge_batch_capacity edges each time the rank's buffer fills, and once
  /// at the end of the rank's run with the remainder, in emission order
  /// (genrt/emitter.h). One indirect call per batch instead of one per
  /// edge (bench/micro_components.cpp, BM_EdgeSink*). Called concurrently
  /// from different rank threads — the callback must be thread-safe (e.g.
  /// write to rank-indexed state). Every edge is seen exactly once, except
  /// after a crash or on resume: the relaunched ranks emit again, restored
  /// or replayed, the edges the crashed world already streamed
  /// (at-least-once; see docs/robustness.md).
  std::function<void(Rank, std::span<const graph::Edge>)> edge_batch_sink;

  /// Edges per edge_batch_sink call (all but each rank's last batch).
  static constexpr std::size_t edge_batch_capacity = 4096;

  /// Cooperative cancellation hook (generation-as-a-service, src/svc/).
  /// Polled by every rank between node batches and on every drain /
  /// termination pump round; must be thread-safe and cheap (typically one
  /// relaxed atomic load). When it returns true each rank throws
  /// core::Cancelled and the run drains cleanly: the first unwinding rank
  /// aborts the mps world, which wakes peers blocked in polls or
  /// collectives, and run_ranks rethrows Cancelled after the join. Null
  /// (the default) keeps the hook off the hot path entirely.
  std::function<bool()> cancel_requested;

  // --- Out-of-core storage (docs/storage.md) ---

  /// Stream every emitted edge into the compressed store at this
  /// directory (src/store/), one shard per rank, finalized with the v4
  /// manifest when the run completes. Engine-independent: generate() wraps
  /// the batched sink path, so any engine that emits edges feeds the store
  /// without materializing them. Incompatible with crash injection and
  /// checkpoint resume — a crash relaunches as a resume, and a resume
  /// re-emits restored edges (at-least-once), which would duplicate blocks
  /// in the store; generate() rejects the combo.
  std::string store_dir;

  /// Edges per compressed block in the store (the seek / integrity /
  /// streaming-memory granularity; store::kDefaultBlockEdges).
  std::size_t store_block_edges = 65536;

  /// Spill per-rank derivation state to files under this directory instead
  /// of holding it all in RAM, bounding peak RSS at any n. Only engines
  /// with the state_spill capability honor it (commfree: the x > 1 row
  /// table pages through store::ExternalArray); generate() rejects it
  /// elsewhere. commfree x = 1 keeps no derivation state, so there it is
  /// accepted and ignored. Output is bitwise-identical with or without
  /// spill.
  std::string spill_dir;

  /// In-RAM bytes each rank's spilled state may cache. Must be > 0 when
  /// spill_dir is set, for every x (generate() rejects 0); x > 1 rounds it
  /// up to one page, and x = 1 has no state to spill.
  std::uint64_t spill_budget_bytes = std::uint64_t{64} << 20;

  // --- Robustness (docs/robustness.md) ---

  /// The mps transport's options, handed to mps::run_ranks as they are. For
  /// the generators a delivery hook excludes checkpointing.
  mps::WorldOptions transport;

  /// Relaunches generate() may make after an injected crash aborts the
  /// world (mps::InjectedCrash). A relaunch runs every rank again with
  /// `resume` on and the plan's crash consumed; a plan scripts one crash,
  /// so any value >= 1 recovers it. 0 makes the crash fatal, which a
  /// service job (svc::JobSpec::max_respawns) uses to exercise its
  /// attempt-level retries instead.
  int max_respawns = 3;

  /// Directory for per-rank generation checkpoints. Empty (the default)
  /// disables checkpointing: a relaunch after a crash then replays from
  /// scratch, which is still correct, just slower. The directory must
  /// exist; files are named pagen-ckpt-<rank> and overwritten atomically.
  std::string checkpoint_dir;

  /// Resolutions between checkpoint writes (per rank).
  Count checkpoint_every = 4096;

  /// Resume a *fresh* run from existing checkpoints in `checkpoint_dir`
  /// (generation-as-a-service retries and the relaunch after a crash,
  /// docs/robustness.md §3 and §6). Each rank restores its checkpointed
  /// slot slice behind the start barrier and re-emits the restored edges,
  /// then continues with only the unresolved remainder. A missing
  /// checkpoint file makes that rank a plain cold start.
  bool resume = false;
};

}  // namespace pagen::core
