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
// Determinism: because every rank resolves in the canonical sequential
// order, the output is bitwise-identical to the sequential copy model —
// baseline::copy_model_targets for x = 1 and baseline::copy_model_general
// for x > 1 — for EVERY rank count and partition scheme. This is strictly
// stronger than the mps engine, whose x > 1 multi-rank edge set depends on
// message timing (docs/serving.md §5).
//
// pagen-lint: hot-path — derivation runs once per edge; flat tables only.
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/pa_config.h"
#include "baseline/pa_draws.h"
#include "core/engine/engine.h"
#include "core/genrt/emitter.h"
#include "core/options.h"
#include "mps/comm.h"
#include "obs/session.h"
#include "partition/partition.h"
#include "store/ext_array.h"
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

/// x > 1 re-derivation: whole rows F_u(0..x-1) in the sequential order of
/// baseline::copy_model_general, kept in one node-indexed table whose entry
/// u * x + e holds F_u(e) (kNil while unresolved). Slots fill in order, so a
/// row is complete exactly when its last slot is set.
///
/// A row suspends when its copy path needs a row not derived yet, and its
/// progress (slot, attempt, copy latch) waits in its frame on an explicit
/// stack. Dependencies are strictly smaller (pick_k range [x, u-1]), so the
/// stack never cycles, and a dependency is never on it: every row off the
/// stack is either complete or untouched.
///
/// The table is a plain vector (8 * n * x bytes per rank), or, with a spill
/// path (the state_spill capability), a store::ExternalArray of the same
/// layout whose page cache holds spill_budget_bytes; never-written pages
/// read as kNil, so the backing file stays sparse. The derivation order,
/// and therefore the output, is the same either way.
class XkDeriver {
 public:
  XkDeriver(const PaConfig& config, const std::string& spill_path,
            std::uint64_t spill_budget_bytes)
      : draws_(config), x_(config.x) {
    if (spill_path.empty()) {
      ram_.assign(static_cast<std::size_t>(config.n * x_), kNil);
    } else {
      spill_.emplace(spill_path, config.n * x_, kNil, spill_budget_bytes);
    }
    // Bootstrap convention: F_x(e) = e (DESIGN.md §5).
    for (NodeId e = 0; e < x_; ++e) set(x_ * x_ + e, e);
  }

  /// Derives the row of node t (t >= x), and every row it copies from,
  /// unless it is already complete.
  void resolve(NodeId t) {
    if (complete(t)) return;
    stack_.clear();
    stack_.push_back({.u = t});
    while (!stack_.empty()) {
      const NodeId dep = advance(stack_.back());
      if (dep == kNil) {
        stack_.pop_back();
      } else {
        stack_.push_back({.u = dep});
      }
    }
  }

  /// F_t(e) of a resolved row.
  [[nodiscard]] NodeId at(NodeId t, NodeId e) { return get(t * x_ + e); }

  /// Duplicate-retries performed by this deriver (own + re-derived nodes).
  [[nodiscard]] Count retries() const { return retries_; }

 private:
  struct Frame {
    NodeId u;
    NodeId e = 0;               ///< first unresolved slot of u's row
    std::uint64_t attempt = 0;  ///< in-progress attempt for slot e
    bool locked_copy = false;   ///< Lines 27-29 latch for slot e
  };

  [[nodiscard]] NodeId get(std::uint64_t i) {
    return spill_ ? spill_->get(i) : ram_[i];
  }

  void set(std::uint64_t i, NodeId v) {
    if (spill_) {
      spill_->set(i, v);
    } else {
      ram_[i] = v;
    }
  }

  [[nodiscard]] bool complete(NodeId u) { return get(u * x_ + x_ - 1) != kNil; }

  /// Resolve f.u's remaining slots exactly as copy_model_general would.
  /// Returns kNil when the row completes, or the dependency node the copy
  /// path is blocked on. The attempt counter is NOT advanced on suspension,
  /// so resuming re-derives the identical (k, l) pair — draws are pure in
  /// (seed, u, e, attempt).
  NodeId advance(Frame& f) {
    const std::uint64_t row = f.u * x_;
    const DrawSchema::Row draws = draws_.row(f.u);
    for (; f.e < x_; ++f.e, f.attempt = 0, f.locked_copy = false) {
      const DrawSchema::Slot slot = draws.slot(f.e);
      // Slots past e are still kNil, so only the resolved prefix can clash.
      const auto is_dup = [&](NodeId v) {
        for (NodeId j = 0; j < f.e; ++j) {
          if (get(row + j) == v) return true;
        }
        return false;
      };
      for (;; ++f.attempt, ++retries_) {
        PAGEN_CHECK_MSG(f.attempt < kMaxAttempts,
                        "duplicate-retry cap exceeded at node " << f.u);
        const NodeId k = draws_.pick_k(slot, f.attempt);
        if (!f.locked_copy && draws_.pick_direct(slot, f.attempt)) {
          if (!is_dup(k)) {
            set(row + f.e, k);
            break;
          }
        } else {
          if (!complete(k)) return k;
          const NodeId v = get(k * x_ + draws_.pick_l(slot, f.attempt));
          if (!is_dup(v)) {
            set(row + f.e, v);
            break;
          }
          f.locked_copy = true;
        }
      }
    }
    return kNil;
  }

  DrawSchema draws_;
  NodeId x_;
  std::vector<NodeId> ram_;
  std::optional<store::ExternalArray<NodeId>> spill_;
  std::vector<Frame> stack_;
  Count retries_ = 0;
};

/// One rank's derivation pass: walk the rank's own nodes in partition-local
/// order, re-derive each value locally, and emit through the rank's emitter,
/// the same output path as the genrt driver. Returns the rank's load.
RankLoad derive_rank(const PaConfig& config, const ParallelOptions& options,
                     const partition::Partition& part, mps::Comm& comm,
                     genrt::EdgeEmitter& out) {
  const auto sp = obs::span(comm.obs(), "derive");

  RankLoad load;
  const auto check_cancel = [&] {
    if (options.cancel_requested && options.cancel_requested()) {
      throw Cancelled();
    }
  };

  const Count own = part.part_size(comm.rank());
  load.nodes = own;

  if (config.x == 1) {
    const DrawSchema draws(config);
    for (Count idx = 0; idx < own; ++idx) {
      if (idx % options.node_batch == 0) check_cancel();
      const NodeId t = part.node_at(comm.rank(), idx);
      if (t == 0) continue;  // the root has no target
      out.emit({t, x1_target(draws, t)});
    }
  } else {
    std::string spill_path;
    if (!options.spill_dir.empty()) {
      std::filesystem::create_directories(options.spill_dir);
      spill_path = options.spill_dir + "/commfree-rank-" +
                   std::to_string(comm.rank()) + ".spill";
    }
    XkDeriver derive(config, spill_path, options.spill_budget_bytes);
    for (Count idx = 0; idx < own; ++idx) {
      if (idx % options.node_batch == 0) check_cancel();
      const NodeId t = part.node_at(comm.rank(), idx);
      if (t < config.x) {
        // Initial clique: the newer endpoint emits, as in the mps shards.
        for (NodeId i = 0; i < t; ++i) out.emit({t, i});
        continue;
      }
      derive.resolve(t);
      for (NodeId e = 0; e < config.x; ++e) out.emit({t, derive.at(t, e)});
    }
    load.retries = derive.retries();
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
