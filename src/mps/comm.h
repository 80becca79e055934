// Comm: the per-rank endpoint of an mps world.
//
// A rank function receives a Comm& and may only touch its own private state
// plus this endpoint — the distributed-memory discipline.  Point-to-point
// sends enqueue envelopes into the destination's mailbox; polls drain the
// rank's own mailbox; collectives rendezvous through CollectiveContext.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mps/collectives.h"
#include "mps/mailbox.h"
#include "mps/message.h"
#include "mps/reliable.h"
#include "mps/stats.h"
#include "util/types.h"

namespace pagen::obs {
class RankObserver;
}

namespace pagen::mps {

class World;

class Comm {
 public:
  /// @param ob this rank's observation endpoint, or null (the default) for
  ///   the uninstrumented fast path.
  Comm(World& world, Rank rank, obs::RankObserver* ob = nullptr);

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  [[nodiscard]] Rank rank() const { return rank_; }
  [[nodiscard]] int size() const;

  /// Send an opaque payload to `dst` (self-send allowed). FIFO per
  /// (src, dst) pair.
  void send_bytes(Rank dst, int tag, std::vector<std::byte> payload);

  /// Like send_bytes but attaches one causal stamp per packed payload item
  /// (obs causal tracing). Stamps ride the envelope's side channel — they
  /// never enter the payload, so bytes_sent is unchanged — and survive
  /// retransmission when the reliable channel re-sends the envelope.
  void send_bytes(Rank dst, int tag, std::vector<std::byte> payload,
                  std::vector<CausalStamp> stamps);

  /// Pack `items` and send as one envelope.
  template <typename T>
  void send_items(Rank dst, int tag, std::span<const T> items) {
    std::vector<std::byte> payload;
    pack(payload, items);
    send_bytes(dst, tag, std::move(payload));
  }

  /// Pack `items` and send as one causally stamped envelope; `stamps` must
  /// pair with `items` by index (stamps.size() == items.size()).
  template <typename T>
  void send_items(Rank dst, int tag, std::span<const T> items,
                  std::vector<CausalStamp> stamps) {
    std::vector<std::byte> payload;
    pack(payload, items);
    send_bytes(dst, tag, std::move(payload), std::move(stamps));
  }

  template <typename T>
  void send_item(Rank dst, int tag, const T& item) {
    send_items(dst, tag, std::span<const T>(&item, 1));
  }

  /// Drain pending envelopes into `out` (appended). Returns true if any.
  bool poll(std::vector<Envelope>& out);

  /// Like poll() but blocks up to `timeout` for the first envelope.
  bool poll_wait(std::vector<Envelope>& out, std::chrono::milliseconds timeout);

  // --- Collectives (every rank must participate, in the same order) ---
  void barrier();
  [[nodiscard]] std::uint64_t allreduce_sum(std::uint64_t v);
  [[nodiscard]] std::uint64_t allreduce_max(std::uint64_t v);
  [[nodiscard]] double allreduce_sum_double(double v);
  [[nodiscard]] std::vector<std::uint64_t> allgather(std::uint64_t v);
  /// Variable-size allgather: every rank deposits a byte blob, all receive
  /// all blobs indexed by rank.
  [[nodiscard]] std::vector<std::vector<std::byte>> allgather_bytes(
      std::vector<std::byte> blob);
  /// Broadcast root's value to everyone.
  [[nodiscard]] std::uint64_t broadcast(std::uint64_t v, Rank root);

  [[nodiscard]] CommStats& stats() { return stats_; }
  [[nodiscard]] const CommStats& stats() const { return stats_; }

  /// This rank's observation endpoint (null when observation is off).
  [[nodiscard]] obs::RankObserver* obs() const { return obs_; }

  /// Envelopes currently queued in this rank's mailbox (diagnostic
  /// snapshot; racy by nature). Feeds the mailbox-depth gauge.
  [[nodiscard]] std::size_t pending() const;

 private:
  /// Count newly drained envelopes. Drain-safe abort: every data envelope
  /// in the batch is accounted (stats + invariant in-flight) first, then an
  /// abort envelope — compacted out of `out` — raises WorldAborted, so the
  /// unwind never leaves half a batch unledgered.
  void account_received(std::vector<Envelope>& out, std::size_t before);

  /// wait_drain bracketed by the invariant checker's wait hooks (debug
  /// builds): stall-clock bookkeeping plus the deadlock probe on a
  /// fruitless timeout. Compiles down to plain wait_drain in Release.
  bool wait_drain_checked(std::vector<Envelope>& out,
                          std::chrono::milliseconds timeout);

  /// Reliable-mode blocking wait: chunked mailbox waits interleaved with
  /// ingest filtering and retransmit-timer servicing, until a *deliverable*
  /// envelope arrives or `timeout` expires. A wakeup that dedup filters to
  /// nothing (only duplicates) does not count as progress.
  bool wait_filtered(std::vector<Envelope>& out, std::size_t before,
                     std::chrono::milliseconds timeout);

  /// Move any collective-time deliveries (stash_) into `out`. Returns true
  /// when anything moved. The caller still owes account_received for them.
  bool take_stash(std::vector<Envelope>& out);

  /// All collectives funnel through here: tallies the stat and wraps the
  /// rendezvous in a trace span named after the operation. In reliable mode
  /// the rendezvous is *serviced*: while blocked, the rank keeps ingesting
  /// (acks, dedup) and firing retransmission timers so peers still polling
  /// for repaired traffic are never starved by a rank that has moved on to
  /// a barrier (docs/robustness.md §2).
  std::vector<std::vector<std::byte>> exchange(const char* op,
                                               std::vector<std::byte> blob);

  World& world_;
  Rank rank_;
  obs::RankObserver* obs_;
  CommStats stats_;
  /// Reliability endpoint, present when the World runs in reliable mode.
  std::unique_ptr<ReliableChannel> reliable_;
  /// Raw-drain staging buffer for the reliable poll paths.
  std::vector<Envelope> scratch_;
  /// Data envelopes delivered while this rank was blocked inside a
  /// *serviced* collective (the rendezvous keeps the reliable channel's
  /// ingest/retransmit loop alive there). Surfaced — and only then counted
  /// — by the next poll/poll_wait.
  std::vector<Envelope> stash_;
};

}  // namespace pagen::mps
