// svc layer 1 — jobs: what a client asks the generation service to do.
//
// A JobSpec is one generation request: the PaConfig workload, the runtime
// knobs that shape the run (ranks, scheme, buffering), where the edges
// should go (Sink), and the scheduling attributes (priority, virtual-tick
// deadline). spec_hash() is the canonical identity of the *output* — it
// covers exactly the fields that decide which graph is generated and how it
// is sharded, and excludes buffering, priority, deadline and sink routing,
// so a cached result serves any repeat request for the same graph however
// it is run, scheduled or delivered. See docs/serving.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/pa_config.h"
#include "core/options.h"
#include "graph/edge_list.h"
#include "mps/world_options.h"
#include "partition/partition.h"
#include "util/types.h"

namespace pagen::svc {

/// Opaque job ticket returned by Server::submit. 0 is never issued.
using JobId = std::uint64_t;
inline constexpr JobId kNoJob = 0;

/// Where a job's edges go.
enum class Sink : std::uint8_t {
  kCount,   ///< no edge storage: load statistics / warm-up runs
  kGather,  ///< edges (and the x = 1 targets row) in the JobOutput
  /// Compressed block store (src/store/, docs/storage.md) in store_dir:
  /// edges stream straight from the generator's sink into delta+varint
  /// blocks, so the job never materializes its edges, and the result is
  /// re-loadable under a memory budget (store::ShardedGraphView). Sealed
  /// with a spec marker and verified on probe. Incompatible with
  /// crash-injection fault plans (re-emission would duplicate blocks);
  /// retries regenerate from scratch instead of resuming.
  kCompressedStore,
};

struct JobSpec {
  PaConfig config;

  // Runtime shape (the ParallelOptions subset a service client may set).
  /// Generation engine (core/engine/engine.h): "mps", "commfree",
  /// "seq-copy", "seq-bb". Part of spec_hash — seq-bb draws another model
  /// than the copy-model engines, so outputs of different engines are
  /// different cacheable identities. validate() rejects unknown names and
  /// capability mismatches at submit.
  std::string engine = "mps";
  int ranks = 4;
  partition::Scheme scheme = partition::Scheme::kRrp;
  std::size_t buffer_capacity = 256;
  std::size_t node_batch = 1024;

  // Delivery.
  Sink sink = Sink::kGather;
  /// Compressed-store directory. Required for Sink::kCompressedStore; when
  /// set on any sink it is also probed for an existing matching store at
  /// submit (docs/serving.md §3). Give distinct specs distinct directories.
  std::string store_dir;

  // Scheduling (never part of spec_hash).
  std::uint32_t priority = 0;  ///< higher runs first; FIFO within a priority
  /// Virtual deadline: the job expires if it has not been dispatched by the
  /// time this many jobs have been accepted (Server's admission tick), and
  /// a running job past it is cancelled at the next hook poll. 0 = none.
  /// Virtual ticks keep every scheduling decision wall-clock free.
  std::uint64_t deadline = 0;

  // Robustness (never part of spec_hash — retries reproduce the same graph).
  /// Worker runs this job may consume before it fails terminally. Attempts
  /// beyond the first resume from the job's checkpoint directory (when the
  /// server has one) after a deterministic virtual-tick backoff.
  std::uint32_t max_attempts = 1;
  /// Per-job transport options (ParallelOptions::transport of every
  /// attempt; defaults are mps::WorldOptions'). The fault plan is for
  /// tests and chaos runs and inert by default.
  mps::FaultPlan fault_plan;
  /// Route the run through the reliable-delivery layer even without faults.
  bool reliable = mps::WorldOptions{}.reliable;
  /// In-run relaunch budget for scripted crashes
  /// (ParallelOptions::max_respawns). 0 turns a crash into an attempt-level
  /// failure, exercising the job retry path instead of the in-run relaunch.
  int max_respawns = core::ParallelOptions{}.max_respawns;
  /// Reliable-transport retransmission timeout, base and cap in ms (only
  /// consulted on reliable runs, but checked on every spec).
  std::int64_t rto_base_ms = mps::WorldOptions{}.rto_base_ms;
  std::int64_t rto_max_ms = mps::WorldOptions{}.rto_max_ms;
};

/// Canonical FNV-1a identity of the graph a spec generates: config fields,
/// the engine, plus ranks and scheme, which decide the shard of each edge
/// (buffering shapes no engine's edge set). Stable across processes and
/// platforms; versioned by a domain tag so the hash space can be rotated if
/// the schema changes ('02 added the engine, '03 dropped buffering).
[[nodiscard]] std::uint64_t spec_hash(const JobSpec& spec);

/// The ParallelOptions of a job's first attempt: the runtime shape, the
/// sink routing and the transport. Server::run_job adds the per-attempt
/// fields (checkpointing, resume, the cancel hook, the chaos sink).
[[nodiscard]] core::ParallelOptions job_options(const JobSpec& spec);

/// Spec admission check: empty string = admissible, otherwise the reason.
/// Runs core::check_request on job_options(spec) — the options the job will
/// run — so an invalid spec is rejected at submit instead of killing a
/// worker; then the service's own rules (a kCompressedStore sink needs
/// store_dir, max_attempts >= 1).
[[nodiscard]] std::string validate(const JobSpec& spec);

enum class JobState : std::uint8_t {
  kQueued,     ///< admitted, waiting for a worker
  kRunning,    ///< a worker is generating
  kCompleted,  ///< terminal: output available
  kCancelled,  ///< terminal: cancelled before or during generation
  kExpired,    ///< terminal: virtual deadline passed before dispatch
  kFailed,     ///< terminal: generation threw on every attempt
  kShed,       ///< terminal: evicted from the queue to admit higher priority
};
[[nodiscard]] const char* to_string(JobState s);
[[nodiscard]] inline bool terminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

/// Admission verdicts (reject-with-reason backpressure, docs/serving.md §2).
enum class Reject : std::uint8_t {
  kNone,             ///< accepted
  kQueueFull,        ///< bounded queue at capacity: back off and retry
  kShuttingDown,     ///< server draining or stopped
  kInvalidSpec,      ///< validate() failed
  kDeadlineExpired,  ///< deadline already behind the admission tick
  kCircuitOpen,      ///< this spec failed k consecutive attempts: fast-fail
};
[[nodiscard]] const char* to_string(Reject r);

/// A completed job's product. Shared immutably between the job record, the
/// result cache, and every client that polled it.
struct JobOutput {
  /// Gathered edges in emission (rank-concatenation) order. Sink::kGather
  /// only; normalize before comparing across runs.
  graph::EdgeList edges;
  /// F_t per node (Sink::kGather with x == 1; kNil for node 0). A store
  /// serve reads it off the stored edges, so it matches a fresh run's row.
  std::vector<NodeId> targets;
  Count total_edges = 0;
  /// Directory of the store this output lives in (kCompressedStore jobs
  /// and store-served repeats).
  std::string store_dir;
};

/// Snapshot returned by Server::poll / wait.
struct JobStatus {
  JobState state = JobState::kQueued;
  /// Served from the result cache or an existing store, without
  /// running the generators.
  bool from_cache = false;
  /// Worker runs consumed so far (0 for cache/store hits).
  std::uint32_t attempts = 0;
  /// A retry attempt restored at least one slot from the job's checkpoint —
  /// proof the job resumed prior progress instead of regenerating it.
  bool resumed = false;
  /// What() of the generation failure (kFailed only; the last attempt's).
  std::string error;
  /// Non-null exactly when state == kCompleted.
  std::shared_ptr<const JobOutput> output;
};

}  // namespace pagen::svc
