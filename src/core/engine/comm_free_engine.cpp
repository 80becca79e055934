// CommFreeEngine: communication-free preferential attachment by
// pseudorandomization (Sanders & Schulz, "Scalable Generation of Scale-free
// Graphs", arXiv:1602.07106).
//
// The mps protocol resolves a copy dependency F_t = F_k by *asking* k's
// owner. But every draw of the copy model is a pure function of
// (seed, t, e, attempt) through DrawSchema, so k's owner knows nothing the
// asking rank cannot recompute: instead of a <request>/<resolved> round
// trip, each rank re-derives the remote draw chain locally. No mailboxes,
// no dependency-chain wait queues, no messages of any kind — the RankLoad
// request/resolved counters of a run are identically 0
// (tests/engine_equivalence_test.cpp asserts this; BENCH_engines.json shows
// it next to the mps volumes).
//
// The trade is recomputation: work that mps does once and shares via
// messages is re-derived by every rank that needs it. At x = 1 that work is
// one chain walk of at most 1/p expected steps (Theorem 3.3), cheaper than
// a probe into any per-node table that outgrows the cache, so x = 1 keeps
// no state. At x > 1 a copy slot waits for a whole row, so one rank's
// closures cover much of the prefix: on the benchmark's x = 6, P = 4, RRP
// spec each rank derives 69% of all rows, and the ranks together perform
// 3.8x the sequential model's duplicate-retries
// (commfree.recompute_ratio), so the cost of one row decides throughput.
// RankLoad::retries therefore counts the duplicate-retries *performed by
// this rank*, including those re-derived on behalf of remote nodes.
//
// Memory: the x > 1 rows live in XkDeriver's table (xk_deriver.h), n * x
// entries per rank. An entry is 4 bytes whenever n <= 2^32 - 1, every graph
// of the paper included, and 8 bytes beyond that; the width is picked once
// per run from n, and the output is the same at both.
//
// Determinism: every rank resolves in the canonical sequential order, so
// the output is bitwise-identical to the sequential copy model —
// baseline::copy_model_targets for x = 1 and baseline::copy_model_general
// for x > 1 — for EVERY rank count and partition scheme: the edge set the
// mps engine emits too (docs/serving.md §5).
//
// pagen-lint: hot-path — derivation runs once per edge; flat tables only.
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>

#include "baseline/pa_config.h"
#include "baseline/pa_draws.h"
#include "core/engine/engine.h"
#include "core/engine/xk_deriver.h"
#include "core/genrt/emitter.h"
#include "core/options.h"
#include "mps/comm.h"
#include "obs/session.h"
#include "partition/partition.h"
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

/// x > 1: each own node's row through one XkDeriver with `Entry`-wide
/// table entries. Returns the duplicate-retries the deriver performed.
template <typename Entry>
Count emit_rows(const PaConfig& config, const ParallelOptions& options,
                const partition::Partition& part, Rank rank,
                genrt::EdgeEmitter& out) {
  std::string spill_path;
  if (!options.spill_dir.empty()) {
    std::filesystem::create_directories(options.spill_dir);
    spill_path = options.spill_dir + "/commfree-rank-" +
                 std::to_string(rank) + ".spill";
  }
  XkDeriver<Entry> derive(config, spill_path, options.spill_budget_bytes);
  const Count own = part.part_size(rank);
  for (Count idx = 0; idx < own; ++idx) {
    if (idx % options.node_batch == 0) check_cancel(options);
    const NodeId t = part.node_at(rank, idx);
    if (t < config.x) {
      // Initial clique: the newer endpoint emits, as in the mps shards.
      for (NodeId i = 0; i < t; ++i) out.emit({t, i});
      continue;
    }
    derive.resolve(t);
    for (NodeId e = 0; e < config.x; ++e) out.emit({t, derive.at(t, e)});
  }
  return derive.retries();
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
  } else if (row_entries_fit_u32(config.n)) {
    load.retries =
        emit_rows<std::uint32_t>(config, options, part, comm.rank(), out);
  } else {
    load.retries =
        emit_rows<std::uint64_t>(config, options, part, comm.rank(), out);
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
