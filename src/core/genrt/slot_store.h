// The slot store: one flat, slot-indexed table of an mps rank's attachment
// state (core/engine/mps_engine.cpp).
//
// pagen-lint: hot-path — touched once per message; flat vectors only.
//
// A *slot* is one attachment choice this rank owns: `local_index(t) * x + e`
// (for x = 1 the local node index itself). Slot indices are dense
// and bounded by `part_size * x`, so every per-slot concern lives in flat
// vectors indexed by slot instead of node-keyed trees:
//
//  * `values_` — the F word per slot: a final value, kNil while the slot is
//    open, or a *parked* candidate under the reserved kParked bit. MpsRank
//    commits a node's slots in order, so a candidate that is known before
//    the row's earlier slots are final waits in the slot's own word: it is
//    never resolved(), never served, and checkpoints as kNil, at no cost
//    per slot. Values stay below kParked because n <= kParked (MpsRank
//    checks it);
//  * `pending_since_` — the request-departure stamps behind the
//    pa.chain_latency_ns histogram (the wait Theorem 3.3 bounds by
//    O(log n) hops): stamped on every note_sent and observed on the
//    answer, exactly when a chain-latency histogram is attached
//    (observation off keeps the hot path bare).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/timer.h"
#include "util/types.h"

namespace pagen::core::genrt {

class SlotStore {
 public:
  /// The F word's parked flag. A value v < t <= n - 1 never sets it, and a
  /// parked word v | kParked never equals kNil.
  static constexpr NodeId kParked = NodeId{1} << 63;

  /// @param slots      number of local slots (part_size * x).
  /// @param chain_hist chain-resolution latency histogram, or null to
  ///   disable stamping entirely.
  SlotStore(Count slots, obs::Histogram* chain_hist)
      : values_(slots, kNil), chain_hist_(chain_hist) {
    if (chain_hist_ != nullptr) pending_since_.assign(slots, -1);
  }

  [[nodiscard]] Count size() const { return values_.size(); }

  /// True once the slot's value is final.
  [[nodiscard]] bool resolved(Count slot) const {
    return values_[slot] < kParked;
  }
  [[nodiscard]] NodeId value(Count slot) const { return values_[slot]; }

  void set_value(Count slot, NodeId v) {
    PAGEN_DCHECK(v < kParked);
    values_[slot] = v;
  }

  /// True while the slot holds a candidate that waits for the row's earlier
  /// slots.
  [[nodiscard]] bool parked(Count slot) const {
    return values_[slot] != kNil && values_[slot] >= kParked;
  }

  /// The slot's final value or its parked candidate.
  [[nodiscard]] NodeId known_value(Count slot) const {
    return values_[slot] & ~kParked;
  }

  void park(Count slot, NodeId v) {
    PAGEN_DCHECK(v < kParked && values_[slot] == kNil);
    values_[slot] = v | kParked;
  }

  /// Take the parked candidate back out; the slot is open again.
  NodeId unpark(Count slot) {
    PAGEN_DCHECK(parked(slot));
    const NodeId v = known_value(slot);
    values_[slot] = kNil;
    return v;
  }

  /// The checkpointed F slice: every final value, and kNil for open and
  /// parked slots (a replay draws a parked candidate again).
  [[nodiscard]] std::vector<NodeId> final_values() const {
    std::vector<NodeId> f = values_;
    for (NodeId& v : f) {
      if (v >= kParked) v = kNil;
    }
    return f;
  }

  /// A <request> for `slot` left this rank: stamp the latency clock (when
  /// observing). A re-send after a duplicate retry restarts the clock.
  void note_sent(Count slot) {
    if (chain_hist_ != nullptr) pending_since_[slot] = now_ns();
  }

  /// The answer for `slot` arrived: observe the chain latency.
  void note_answered(Count slot) {
    if (chain_hist_ != nullptr) {
      std::int64_t& since = pending_since_[slot];
      if (since >= 0) {
        chain_hist_->observe(static_cast<std::uint64_t>(now_ns() - since));
        since = -1;
      }
    }
  }

 private:
  std::vector<NodeId> values_;  ///< F by slot; kNil = unresolved
  obs::Histogram* chain_hist_;
  std::vector<std::int64_t> pending_since_;  ///< request departure, by slot
};

}  // namespace pagen::core::genrt
