// Collective operations for the mps runtime.
//
// All collectives are built on one primitive, `exchange`: every rank deposits
// a byte blob and receives every rank's blob (an allgather).  Barrier,
// reductions and broadcast are thin folds over it.  The implementation uses a
// shared generation-counted rendezvous; semantically it is identical to a
// log-P dissemination allgather, and the scaling cost model charges
// ceil(log2 P) per collective accordingly (DESIGN.md §5).
//
// Every rank of the world must call the same collective in the same order —
// the usual MPI contract.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "mps/message.h"
#include "util/types.h"

namespace pagen::mps {

/// Thrown from a collective when another rank of the world has failed.
class WorldAborted : public std::runtime_error {
 public:
  WorldAborted() : std::runtime_error("mps world aborted: a rank failed") {}
};

class CollectiveContext {
 public:
  explicit CollectiveContext(int nranks);

  /// Allgather of raw bytes: deposit `in`, receive all ranks' deposits
  /// indexed by rank. Blocks until every rank has arrived.
  /// Throws WorldAborted if the world was poisoned while waiting.
  ///
  /// With a `service` hook the wait wakes at least every `tick` to run it
  /// without the rendezvous lock. Reliable-mode Comms use it to keep
  /// ingesting acks and firing retransmission timers inside a collective —
  /// otherwise a rank blocked in the final barrier could never repair a
  /// dropped or held envelope a still-polling peer depends on
  /// (docs/robustness.md §2). Without one the wait has no timed wakeups.
  std::vector<std::vector<std::byte>> exchange(
      Rank rank, std::vector<std::byte> in,
      const std::function<void()>& service = {},
      std::chrono::milliseconds tick = {});

  /// Mark the world failed (a rank died). Every blocked or future exchange()
  /// throws WorldAborted, so one rank's exception cannot deadlock the rest.
  void poison();

  [[nodiscard]] int nranks() const { return nranks_; }

 private:
  using Blobs = std::vector<std::vector<std::byte>>;

  int nranks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  bool poisoned_ = false;
  Blobs slots_;
  /// The last completed round, shared by its readers: each copies its
  /// result out of it after leaving the lock.
  std::shared_ptr<const Blobs> published_;
};

}  // namespace pagen::mps
