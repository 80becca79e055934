// XkPolicy: Algorithm 3.2, distributed-memory preferential attachment for
// every x >= 1, as the one genrt policy. MpsEngine (mps_engine.cpp) runs one
// genrt::Driver<XkPolicy> per rank.
//
// pagen-lint: policy-impl — the XkPolicy speaks only through the Driver.
//
// At x = 1 the clique is node 0, the bootstrap row is F_1 = 0 and no
// duplicate can arise, so the run makes exactly Algorithm 3.1's draws: the
// tree is bitwise identical to baseline::copy_model_targets for every rank
// count, partitioning scheme and message timing.
//
// For x > 1 the duplicate-retry decisions depend on the order in which a
// node's edges resolve, so — exactly as in the paper — the emitted edge set
// is scheduling-dependent when P > 1; the distribution and all structural
// invariants (simple graph, exact edge count, connectivity) are preserved
// and tested.
//
// Included by mps_engine.cpp only. The anonymous namespace keeps
// Driver<XkPolicy> local to that translation unit, as it was when the policy
// lived in a .cpp file; with external linkage GCC stopped inlining the
// packed-item loops into Driver::pump and Driver::run into the rank body.
#pragma once

#include <cstdint>
#include <vector>

#include "baseline/pa_draws.h"
#include "core/checkpoint.h"
#include "core/genrt/driver.h"
#include "core/genrt/protocol.h"
#include "util/error.h"
#include "util/types.h"

namespace pagen::core {
namespace {

/// Algorithm 3.2 as a genrt policy: x slots per node (F_t(e)), an initial
/// x-clique, and duplicate-edge avoidance — direct-path duplicates retry
/// with a fresh (k, coin) (paper Lines 9-10), copy-path duplicates re-draw
/// (k, l) and latch onto the copy path (Lines 26-29). The per-slot attempt
/// counter doubles as the request round so stale answers after a crash
/// recovery are filtered. At x = 1 (clique {0}, F_1 = 0) no duplicate can
/// arise and the run is Algorithm 3.1. Everything else lives in the genrt
/// runtime.
class XkPolicy {
 public:
  using Request = RequestXk;
  using Resolved = ResolvedXk;

  using D = genrt::Driver<XkPolicy>;

  explicit XkPolicy(D& d) : d_(d), draws_(d.config()), x_(d.config().x) {}

  /// Clique nodes (t < x) have no attachment choices of their own.
  [[nodiscard]] bool node_has_slots(NodeId t) const { return t >= x_; }

  void process_own_node(NodeId t) {
    if (t < x_) {
      // Initial clique: the larger endpoint emits each clique edge.
      for (NodeId i = 0; i < t; ++i) d_.emit_edge({t, i});
      return;
    }
    if (t == x_) {
      // Bootstrap convention (DESIGN.md §5): node x connects to the whole
      // clique, so F_x(e) = e deterministically.
      for (std::uint32_t e = 0; e < x_; ++e) {
        if (d_.recovering() && d_.slots().resolved(slot(t, e))) continue;
        if (!d_.recovering()) d_.add_open_slot();  // recovery pre-counts
        assign(t, e, e);
      }
      return;
    }
    for (std::uint32_t e = 0; e < x_; ++e) {
      if (d_.recovering() && d_.slots().resolved(slot(t, e))) continue;
      if (!d_.recovering()) d_.add_open_slot();  // recovery pre-counts
      try_edge(t, e);
    }
  }

  // --- Request/resolved mapping (Lines 17-20) ---

  [[nodiscard]] Count request_slot(const Request& req) const {
    return slot(req.k, req.l);
  }
  [[nodiscard]] static genrt::Waiter request_waiter(const Request& req,
                                                    Rank src) {
    return {req.t, req.e, src, req.round};  // Lines 19-20: queue Q_{k,l}
  }
  [[nodiscard]] static Resolved make_resolved(const Request& req, NodeId v) {
    return {req.t, v, req.e, req.round};  // Lines 17-18
  }
  [[nodiscard]] static Resolved waiter_resolved(const genrt::Waiter& w,
                                                NodeId v) {
    return {w.t, v, w.e, w.round};
  }
  [[nodiscard]] Count resolved_slot(const Resolved& res) const {
    return slot(res.t, res.e);
  }
  /// Stale answer to a superseded round: processing it would bump the
  /// attempt counter a second time and desync the deterministic draw
  /// sequence (docs/robustness.md §3).
  [[nodiscard]] bool accept_resolved(const Resolved& res) const {
    return !d_.tolerant() || res.round == attempt_of(slot(res.t, res.e));
  }
  void apply_resolved(const Resolved& res) {
    on_resolved(res.t, res.e, res.v);
  }
  void deliver_local(const genrt::Waiter& w, NodeId v) {
    on_resolved(w.t, w.e, v);
  }

  // --- Checkpoint extras: attempt counters and copy-path latches, empty
  // until the rank's first duplicate retry ---

  void fill_checkpoint(RankCheckpoint& ck) const {
    ck.attempts = attempts_;
    ck.locked_copy = locked_copy_;
  }
  void restore_checkpoint_extras(const RankCheckpoint& ck) {
    PAGEN_CHECK_MSG((ck.attempts.empty() ||
                     ck.attempts.size() == d_.slots().size()) &&
                        ck.locked_copy.size() == ck.attempts.size(),
                    "checkpoint does not match this run's parameters");
    attempts_ = ck.attempts;
    locked_copy_ = ck.locked_copy;
  }

 private:
  [[nodiscard]] Count slot(NodeId t, std::uint32_t e) const {
    return d_.part().local_index(t) * x_ + e;
  }

  /// Slot s's draw attempt and copy-path latch (0 and unlatched until the
  /// rank's first retry allocates them; x = 1 never retries).
  [[nodiscard]] std::uint32_t attempt_of(Count s) const {
    return attempts_.empty() ? 0 : attempts_[s];
  }
  [[nodiscard]] bool copy_locked(Count s) const {
    return !locked_copy_.empty() && locked_copy_[s] != 0;
  }

  /// Slot s drew a duplicate: next attempt, latched onto the copy path when
  /// `lock` (Lines 26-29) or free to redraw the coin (Lines 9-10).
  void retry(Count s, bool lock) {
    if (attempts_.empty()) {
      attempts_.assign(d_.slots().size(), 0);
      locked_copy_.assign(d_.slots().size(), 0);
    }
    if (lock) locked_copy_[s] = 1;
    ++attempts_[s];
    ++d_.load().retries;
  }

  /// True if v already is one of t's resolved endpoints (k ∈ F_t check).
  [[nodiscard]] bool is_duplicate(NodeId t, NodeId v) const {
    const Count base = d_.part().local_index(t) * x_;
    for (NodeId e = 0; e < x_; ++e) {
      if (d_.slots().value(base + e) == v) return true;
    }
    return false;
  }

  /// Drive edge (t, e) forward until it is assigned, parked in a local
  /// queue, or waiting on a remote request (Lines 3-14 and 26-29).
  void try_edge(NodeId t, std::uint32_t e) {
    const Count s = slot(t, e);
    for (;;) {
      const std::uint64_t attempt = attempt_of(s);
      PAGEN_CHECK_MSG(attempt < kMaxAttempts,
                      "duplicate-retry cap exceeded at node " << t);
      const NodeId k = draws_.pick_k(t, e, attempt);
      if (!copy_locked(s) && draws_.pick_direct(t, e, attempt)) {
        if (!is_duplicate(t, k)) {
          assign(t, e, k);  // Lines 7-8
          return;
        }
        retry(s, /*lock=*/false);  // Lines 9-10: fresh k and coin
        continue;
      }
      const auto l = static_cast<std::uint32_t>(draws_.pick_l(t, e, attempt));
      const Rank owner = d_.part().owner(k);
      if (owner != d_.rank()) {
        // Line 14; the round echo is this slot's attempt at issue time.
        d_.send_request(owner, s,
                        {t, k, e, l, static_cast<std::uint32_t>(attempt)});
        return;
      }
      const Count ks = slot(k, l);
      if (!d_.slots().resolved(ks)) {
        d_.queue_waiter(ks, {t, e, d_.rank(), 0});  // local Q_{k,l}
        return;
      }
      const NodeId v = d_.slots().value(ks);
      if (!is_duplicate(t, v)) {
        d_.note_copy_depth(ks);  // F_t(e) extends F_k(l)'s dependency chain
        assign(t, e, v);
        return;
      }
      retry(s, /*lock=*/true);  // Lines 26-29: stay on the copy path
    }
  }

  /// F_t(e) := v (the runtime emits the edge and answers everyone queued
  /// on (t, e), re-entering deliver_local for local waiters).
  void assign(NodeId t, std::uint32_t e, NodeId v) {
    PAGEN_DCHECK(!is_duplicate(t, v));
    d_.assign_slot(slot(t, e), t, v);
  }

  /// A value arrived for edge (t, e) — either accept it or retry on the
  /// copy path (Lines 21-29).
  void on_resolved(NodeId t, std::uint32_t e, NodeId v) {
    const Count s = slot(t, e);
    if (d_.slots().resolved(s)) {
      // Crash-tolerant mode: a recovery re-offer can answer a slot that an
      // in-flight first answer already settled. The value must agree —
      // F_k(l) is unique once resolved, and stale rounds were filtered.
      PAGEN_CHECK_MSG(d_.tolerant(),
                      "duplicate resolution of (" << t << "," << e << ")");
      PAGEN_CHECK_MSG(d_.slots().value(s) == v,
                      "conflicting resolution of (" << t << "," << e << ")");
      return;
    }
    if (is_duplicate(t, v)) {
      retry(s, /*lock=*/true);
      try_edge(t, e);
      return;
    }
    assign(t, e, v);
  }

  D& d_;
  DrawSchema draws_;
  NodeId x_;
  // Per-slot draw attempt counter and Lines 26-29 latch; both empty until
  // retry() first runs.
  std::vector<std::uint32_t> attempts_;
  std::vector<std::uint8_t> locked_copy_;
};

}  // namespace
}  // namespace pagen::core
