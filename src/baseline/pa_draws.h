// The draw schema: every random choice of the copy-model generators.
//
// Both the sequential copy model and the distributed Algorithm 3.1/3.2 pull
// their choices exclusively through this schema, so a choice is a pure
// function of (seed, t, e, attempt) — independent of rank count, partition
// scheme, message timing, and execution order.  This is what makes the
// parallel generator *exact* and testable against the sequential one
// (DESIGN.md §5).
//
// Each choice is the CounterRng stream (purpose, t, e, attempt), hashed one
// round per coordinate, so its state is kept where its inputs change: the
// purpose keys once per schema, row(t) once per node, Row::slot(e) once per
// edge slot; a draw on a given attempt then costs one round. The
// (t, e, attempt) overloads redo the node and slot rounds on every call.
#pragma once

#include <cstdint>

#include "baseline/pa_config.h"
#include "rng/counter_rng.h"
#include "util/types.h"

namespace pagen {

/// Duplicate-retry cap per edge slot of Algorithm 3.2, shared by every
/// generator that retries (the sequential model, mps and commfree), so a
/// spec that trips it fails identically on each.
inline constexpr std::uint64_t kMaxAttempts = 100000;

class DrawSchema {
 public:
  /// One hash state per purpose: pick_k, pick_direct, pick_l.
  struct States {
    std::uint64_t k;
    std::uint64_t coin;
    std::uint64_t l;

    [[nodiscard]] States absorb(std::uint64_t coord) const {
      return {rng::CounterRng::absorb(k, coord),
              rng::CounterRng::absorb(coin, coord),
              rng::CounterRng::absorb(l, coord)};
    }
  };

  /// The draws of node t's e-th edge, every attempt.
  struct Slot {
    NodeId t;
    States states;
  };

  /// The draws of node t, every edge slot.
  struct Row {
    NodeId t;
    States states;

    [[nodiscard]] Slot slot(NodeId e) const { return {t, states.absorb(e)}; }
  };

  explicit DrawSchema(const PaConfig& config) : p_(config.p), x_(config.x) {
    const rng::CounterRng rng(config.seed);
    keys_ = {rng.purpose_key(kPurposeK), rng.purpose_key(kPurposeCoin),
             rng.purpose_key(kPurposeL)};
  }

  /// Node t's draws: one round per purpose on top of the purpose keys.
  [[nodiscard]] Row row(NodeId t) const { return {t, keys_.absorb(t)}; }

  /// Line 3 / Line 4: the uniformly selected node k for (t, e, attempt),
  /// in [x, t-1] (for x = 1, Algorithm 3.1's [1, t-1]).
  [[nodiscard]] NodeId pick_k(const Slot& s, std::uint64_t attempt) const {
    return rng::CounterRng::range(x_, s.t - 1, s.states.k, attempt);
  }

  /// Line 5: true means "connect directly to k" (probability p).
  [[nodiscard]] bool pick_direct(const Slot& s, std::uint64_t attempt) const {
    return rng::CounterRng::coin(p_, s.states.coin, attempt);
  }

  /// Line 12: which of k's x edges to copy (0-based).
  [[nodiscard]] NodeId pick_l(const Slot& s, std::uint64_t attempt) const {
    return rng::CounterRng::below(x_, s.states.l, attempt);
  }

  // The same draws addressed by (t, e, attempt).
  [[nodiscard]] NodeId pick_k(NodeId t, NodeId e, std::uint64_t attempt) const {
    return pick_k(row(t).slot(e), attempt);
  }

  [[nodiscard]] bool pick_direct(NodeId t, NodeId e,
                                 std::uint64_t attempt) const {
    return pick_direct(row(t).slot(e), attempt);
  }

  [[nodiscard]] NodeId pick_l(NodeId t, NodeId e, std::uint64_t attempt) const {
    return pick_l(row(t).slot(e), attempt);
  }

 private:
  static constexpr std::uint64_t kPurposeK = 1;
  static constexpr std::uint64_t kPurposeCoin = 2;
  static constexpr std::uint64_t kPurposeL = 3;

  double p_;
  NodeId x_;
  States keys_{};
};

}  // namespace pagen
