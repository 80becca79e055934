// CommFreeEngine: communication-free preferential attachment by
// pseudorandomization (Sanders & Schulz, "Scalable Generation of Scale-free
// Graphs", arXiv:1602.07106).
//
// The mps protocol resolves a copy dependency F_t = F_k by *asking* k's
// owner. But every draw of the copy model is a pure function of
// (seed, t, e, attempt) through DrawSchema, so k's owner knows nothing the
// asking rank cannot recompute: instead of a <request>/<resolved> round
// trip, each rank re-derives the remote draw chain locally. No mailboxes,
// no dependency-chain wait queues, zero request/resolved messages — the
// RankLoad request/resolved counters of a run are identically 0 and no
// rank sends an envelope (tests/engine_equivalence_test.cpp asserts both).
// The one communication is one allgather per epoch at x > 1, below.
//
// At x = 1 re-derivation is one chain walk of at most 1/p expected steps
// (Theorem 3.3), cheaper than a probe into any per-node table that
// outgrows the cache, so x = 1 keeps no state and exchanges nothing.
//
// At x > 1 a copy slot waits for a whole row, so the derivation closure of
// one rank's nodes covers most of the prefix: every rank re-deriving its
// closure costs close to P derivations per row (2.76 on the benchmark's
// x = 6, P = 4, RRP spec). Dependencies point strictly backwards (pick_k
// draws from [x, t-1]), so a row below node T is final once derived
// anywhere and can be shared instead of recomputed. The rows are therefore
// derived in node epochs [T, E), E - T = clamp(ceil(T / kEpochGrowth),
// kMinEpochRowsPerRank * P, kMaxEpochRowsPerRank * P): each rank resolves
// its own rows of the epoch, re-deriving a same-epoch remote dependency
// locally, then one Comm::allgather_bytes carries every rank's rows of the
// epoch — x entries per row, in the sender's node order, no node ids —
// into every rank's table, so every dependency below E is present for the
// next epoch. A row a rank derived itself must equal the one it receives.
//
// Epochs pay only when every rank derives part of every epoch, and the
// partition decides that with no knob: epochs run when every rank owns a
// node of the first epoch (RRP, fine block-cyclic). A consecutive
// partition (UCP, LCP) would serialize the ranks, and a spilled table
// would turn every received row into a page-cache write
// (docs/storage.md §5), so those, and P = 1, run one epoch with no
// exchange. RankLoad::retries counts the duplicate-retries *performed by
// this rank*, including those re-derived on behalf of remote nodes; the
// obs counters commfree.rows_derived and commfree.epochs count its derived
// rows and its epochs.
//
// Memory: the x > 1 rows live in XkDeriver's table (xk_deriver.h), n * x
// entries per rank. An entry is 4 bytes whenever n <= 2^32 - 1, every graph
// of the paper included, and 8 bytes beyond that; the width is picked once
// per run from n, and the output is the same at both. An epoch's exchange
// holds at most kMaxEpochRowsPerRank rows per rank in flight.
//
// Determinism: every rank resolves in the canonical sequential order, so
// the output is bitwise-identical to the sequential copy model —
// baseline::copy_model_targets for x = 1 and baseline::copy_model_general
// for x > 1 — for EVERY rank count and partition scheme: the edge set the
// mps engine emits too (docs/serving.md §5). Each rank emits its nodes in
// partition-local order, epochs or not.
//
// pagen-lint: hot-path — derivation runs once per edge; flat tables only.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/pa_config.h"
#include "baseline/pa_draws.h"
#include "core/engine/engine.h"
#include "core/engine/xk_deriver.h"
#include "core/genrt/emitter.h"
#include "core/options.h"
#include "mps/comm.h"
#include "obs/session.h"
#include "partition/partition.h"
#include "util/error.h"
#include "util/types.h"

namespace pagen::core {
namespace {

/// x = 1 re-derivation, a stateless chain walk: F_t follows the copy chain
/// t -> k -> k' ... to the first direct draw, whose k is the value of every
/// node on the chain, or to the bootstrap node 1 (F_1 = 0).
[[nodiscard]] NodeId x1_target(const DrawSchema& draws, NodeId t) {
  for (NodeId cur = t; cur != 1;) {
    const DrawSchema::Slot slot = draws.row(cur).slot(0);
    const NodeId k = draws.pick_k(slot, 0);
    if (draws.pick_direct(slot, 0)) return k;
    cur = k;  // k in [1, cur-1]: the walk reaches node 1 at the latest
  }
  return 0;
}

/// Throws Cancelled once the run's cancel hook asks for it.
void check_cancel(const ParallelOptions& options) {
  if (options.cancel_requested && options.cancel_requested()) {
    throw Cancelled();
  }
}

/// x = 1: one stateless chain walk per own node.
void emit_targets(const PaConfig& config, const ParallelOptions& options,
                  const partition::Partition& part, Rank rank,
                  genrt::EdgeEmitter& out) {
  const DrawSchema draws(config);
  const Count own = part.part_size(rank);
  for (Count idx = 0; idx < own; ++idx) {
    if (idx % options.node_batch == 0) check_cancel(options);
    const NodeId t = part.node_at(rank, idx);
    if (t == 0) continue;  // the root has no target
    out.emit({t, x1_target(draws, t)});
  }
}

/// The x > 1 epoch schedule (see the header). An epoch starting at node T
/// spans ceil(T / kEpochGrowth) nodes (ε = 1/8), but at least
/// kMinEpochRowsPerRank and at most kMaxEpochRowsPerRank nodes per rank:
/// the floor keeps the first epochs from being all rendezvous, the cap
/// bounds the rows in flight. Chosen from a sweep on the benchmark's
/// commfree-x6 spec (CHANGES.md).
constexpr NodeId kEpochGrowth = 8;
constexpr NodeId kMinEpochRowsPerRank = 256;
constexpr NodeId kMaxEpochRowsPerRank = 8192;

/// End of the epoch that starts at `begin`, for an n-node run on `ranks`.
[[nodiscard]] NodeId epoch_end(NodeId begin, NodeId n, int ranks) {
  const auto p = static_cast<NodeId>(ranks);
  const NodeId span =
      std::clamp((begin + kEpochGrowth - 1) / kEpochGrowth,
                 kMinEpochRowsPerRank * p, kMaxEpochRowsPerRank * p);
  return std::min(n, begin + span);
}

/// Whether the x > 1 rows are derived in epochs and exchanged: only when
/// every rank owns a node of the first epoch, and the table is in RAM.
[[nodiscard]] bool derives_in_epochs(const partition::Partition& part,
                                     NodeId n, bool spilled) {
  const int ranks = part.num_parts();
  if (ranks == 1 || spilled) return false;
  const NodeId first_end = epoch_end(0, n, ranks);
  for (Rank r = 0; r < ranks; ++r) {
    if (part.part_size(r) == 0 || part.node_at(r, 0) >= first_end) {
      return false;
    }
  }
  return true;
}

/// What one rank's x > 1 derivation did.
struct RowsDone {
  Count retries = 0;  ///< duplicate-retries the deriver performed
  Count rows_derived = 0;
  Count epochs = 0;
};

/// Installs rank `src`'s rows of the epoch ending at `end` — x entries per
/// node t >= x, in src's node order — and moves src's cursor `next` past
/// them.
template <typename Entry>
void install_rows(XkDeriver<Entry>& derive, const partition::Partition& part,
                  Rank src, NodeId end, NodeId x,
                  const std::vector<std::byte>& in, Count& next) {
  const std::size_t row_bytes = x * sizeof(Entry);
  std::size_t at = 0;
  for (const Count size = part.part_size(src); next < size; ++next) {
    const NodeId t = part.node_at(src, next);
    if (t >= end) break;
    if (t < x) continue;
    PAGEN_CHECK_MSG(at + row_bytes <= in.size(),
                    "rank " << src << " sent too few rows");
    derive.install_row(t, in.data() + at);
    at += row_bytes;
  }
  PAGEN_CHECK_MSG(at == in.size(), "rank " << src << " sent too many rows");
}

/// x > 1: each own node's row through one XkDeriver with `Entry`-wide
/// table entries, epoch by epoch, with every other rank's rows of an epoch
/// installed from its allgather before the next epoch starts.
template <typename Entry>
RowsDone emit_rows(const PaConfig& config, const ParallelOptions& options,
                   const partition::Partition& part, mps::Comm& comm,
                   genrt::EdgeEmitter& out) {
  const Rank rank = comm.rank();
  const int ranks = comm.size();
  std::string spill_path;
  if (!options.spill_dir.empty()) {
    std::filesystem::create_directories(options.spill_dir);
    spill_path = options.spill_dir + "/commfree-rank-" +
                 std::to_string(rank) + ".spill";
  }
  XkDeriver<Entry> derive(config, spill_path, options.spill_budget_bytes);
  const bool exchange = derives_in_epochs(part, config.n, !spill_path.empty());
  // next[r]: partition-local index of rank r's first node past the epochs
  // done; each rank's nodes come in ascending order.
  std::vector<Count> next(static_cast<std::size_t>(ranks), 0);
  const Count own = part.part_size(rank);
  RowsDone done;
  for (NodeId begin = 0; begin < config.n; ++done.epochs) {
    const NodeId end = exchange ? epoch_end(begin, config.n, ranks) : config.n;
    const bool share = end < config.n;  // nobody reads the last epoch's rows
    std::vector<std::byte> rows;
    if (share) {
      rows.reserve((end - begin) / static_cast<NodeId>(ranks) * config.x *
                   sizeof(Entry));
    }
    for (Count& idx = next[static_cast<std::size_t>(rank)]; idx < own; ++idx) {
      const NodeId t = part.node_at(rank, idx);
      if (t >= end) break;
      if (idx % options.node_batch == 0) check_cancel(options);
      if (t < config.x) {
        // Initial clique: the newer endpoint emits, as in the mps shards.
        for (NodeId i = 0; i < t; ++i) out.emit({t, i});
        continue;
      }
      derive.resolve(t);
      for (NodeId e = 0; e < config.x; ++e) out.emit({t, derive.at(t, e)});
      if (share) derive.append_row(t, rows);
    }
    if (share) {
      const std::vector<std::vector<std::byte>> all =
          comm.allgather_bytes(std::move(rows));
      for (Rank src = 0; src < ranks; ++src) {
        if (src == rank) continue;
        const auto s = static_cast<std::size_t>(src);
        install_rows(derive, part, src, end, config.x, all[s], next[s]);
      }
    }
    begin = end;
  }
  done.retries = derive.retries();
  done.rows_derived = derive.rows_derived();
  return done;
}

/// One rank's derivation pass: walk the rank's own nodes in partition-local
/// order, re-derive each value locally, and emit through the rank's emitter,
/// the same output path as the mps rank. Returns the rank's load.
RankLoad derive_rank(const PaConfig& config, const ParallelOptions& options,
                     const partition::Partition& part, mps::Comm& comm,
                     genrt::EdgeEmitter& out) {
  const auto sp = obs::span(comm.obs(), "derive");
  RankLoad load;
  load.nodes = part.part_size(comm.rank());
  if (config.x == 1) {
    emit_targets(config, options, part, comm.rank(), out);
    return load;
  }
  const RowsDone done =
      row_entries_fit_u32(config.n)
          ? emit_rows<std::uint32_t>(config, options, part, comm, out)
          : emit_rows<std::uint64_t>(config, options, part, comm, out);
  load.retries = done.retries;
  if (auto* ob = comm.obs()) {
    ob->metrics().counter("commfree.rows_derived").add(done.rows_derived);
    ob->metrics().counter("commfree.epochs").add(done.epochs);
  }
  return load;
}

class CommFreeEngine final : public Engine {
 public:
  [[nodiscard]] std::string_view name() const override { return "commfree"; }

  [[nodiscard]] EngineCaps capabilities() const override {
    return {.checkpointing = false,
            .fault_tolerance = false,
            .delivery_hook = false,
            .multi_rank = true,
            .state_spill = true};
  }

  [[nodiscard]] RankRun run(const PaConfig& config,
                            const ParallelOptions& options,
                            const partition::Partition& part, mps::Comm& comm,
                            genrt::EdgeEmitter& out) const override {
    return {.load = derive_rank(config, options, part, comm, out)};
  }
};

}  // namespace

std::unique_ptr<Engine> make_comm_free_engine() {
  return std::make_unique<CommFreeEngine>();
}

}  // namespace pagen::core
