// Counting termination detection for the asynchronous generation phase.
//
// Invariant (proved in DESIGN.md §5): a `request` in flight implies its
// sender still has an unresolved edge; a `resolved` in flight implies its
// receiver does.  Hence once every rank is locally done (all own edges
// resolved, all send buffers flushed) there are no data messages in flight,
// and it is safe to stop.  Protocol: each rank reports `done` to rank 0
// exactly once; rank 0, after collecting all P reports, broadcasts `stop`.
// Ranks keep serving incoming requests between their own completion and the
// receipt of `stop`.
#pragma once

#include <vector>

#include "mps/comm.h"
#include "util/error.h"

namespace pagen::mps {

class DoneDetector {
 public:
  /// @param done_tag tag of rank->0 completion notices
  /// @param stop_tag tag of the 0->all stop broadcast
  DoneDetector(Comm& comm, int done_tag, int stop_tag)
      : comm_(comm),
        done_tag_(done_tag),
        stop_tag_(stop_tag),
        done_seen_(static_cast<std::size_t>(comm.size()), false) {}

  /// Report this rank's local completion (call exactly once, after flushing
  /// all outgoing data buffers).
  void notify_local_done() {
    PAGEN_CHECK_MSG(!notified_, "notify_local_done called twice");
    notified_ = true;
    if (comm_.rank() == 0) {
      absorb_done(0);
    } else {
      comm_.send_item<char>(0, done_tag_, 0);
    }
  }

  /// Offer an incoming envelope to the detector. Returns true if it was a
  /// termination-protocol message (and was consumed).
  bool handle(const Envelope& env) {
    if (env.tag == done_tag_) {
      PAGEN_CHECK_MSG(comm_.rank() == 0, "done notice delivered to non-root");
      absorb_done(env.src);
      return true;
    }
    if (env.tag == stop_tag_) {
      stopped_ = true;
      return true;
    }
    return false;
  }

  /// True once the stop broadcast has been received (or sent, on rank 0).
  [[nodiscard]] bool stopped() const { return stopped_; }

 private:
  void absorb_done(Rank src) {
    // Every rank reports once; a second notice would count a rank twice
    // and stop the world before some rank is done.
    PAGEN_CHECK_MSG(!done_seen_[static_cast<std::size_t>(src)],
                    "second done notice from rank " << src);
    done_seen_[static_cast<std::size_t>(src)] = true;
    if (++dones_ == comm_.size()) {
      for (Rank r = 1; r < comm_.size(); ++r) {
        comm_.send_item<char>(r, stop_tag_, 0);
      }
      stopped_ = true;
    }
  }

  Comm& comm_;
  int done_tag_;
  int stop_tag_;
  int dones_ = 0;
  std::vector<bool> done_seen_;  ///< by rank: its done notice arrived (root)
  bool notified_ = false;
  bool stopped_ = false;
};

}  // namespace pagen::mps
