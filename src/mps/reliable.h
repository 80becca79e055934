// Reliable-delivery layer: acks, retransmission, dedup, reordering repair.
//
// The paper's protocol assumes MPI's lossless non-overtaking transport; the
// fault injector (mps/fault.h) deliberately violates both, so this layer
// restores them end-to-end. The design is a per-flow sliding window in the
// style of Go-Back-N:
//
//  * **Sender** — every logical send on a (dst, tag) flow is stamped with a
//    sequence number (reusing Envelope::seq, starting at 0 per world) and a
//    copy is retained until a cumulative ack covers it. Only the oldest
//    unacked envelope per flow is retransmitted on timeout, with
//    exponential backoff (rto_base · 2^attempts, capped at rto_max): a
//    cumulative ack for the head also covers everything the receiver parked
//    behind the gap, so head-only retransmission converges without
//    selective-repeat bookkeeping.
//  * **Receiver** — per (src, tag) flow, envelopes below the expected
//    sequence are duplicates and are discarded; envelopes above it are held
//    in an ordered buffer until the gap fills; in-order envelopes are
//    surfaced immediately together with any consecutively held successors.
//    Every delivery or duplicate marks the peer dirty and triggers one
//    cumulative ack envelope (tag kAckTag) on the control path, which is
//    exempt from fault injection.
//
// A channel lives exactly as long as its world: an injected crash aborts
// the world, and core::generate relaunches every rank on a fresh one
// (docs/robustness.md §3), so no flow ever outlives its peer.
//
// Threading: one ReliableChannel per Comm, touched only by the owning
// rank's thread. Cross-rank effects go through World::deliver /
// deliver_control, which end in the destination Mailbox's mutex.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "mps/message.h"
#include "mps/stats.h"
#include "util/types.h"

namespace pagen::mps {

class World;

/// One cumulative acknowledgement: "I have delivered every envelope below
/// `cum` on flow `tag`". Packed (several per kAckTag envelope, one per flow
/// of the acked peer).
struct AckItem {
  std::int32_t tag = 0;
  std::uint32_t pad = 0;
  std::uint64_t cum = 0;
};

/// Per-rank endpoint of the reliability protocol (see header comment).
class ReliableChannel {
 public:
  /// @param stats the owning Comm's counters; retransmits / acks /
  ///   duplicates are tallied here, separate from envelopes_sent, so the
  ///   paper's message-load figures stay uninflated.
  ReliableChannel(World& world, Rank rank, CommStats& stats);

  /// Sender path: stamp seq, retain a copy for retransmission, and hand the
  /// envelope to World::deliver (where injection applies). Causal stamps
  /// (if any) are retained alongside the payload so a retransmitted
  /// envelope carries the same per-item causal context as the original.
  void send(Rank dst, int tag, std::vector<std::byte> payload,
            std::vector<CausalStamp> stamps = {});

  /// Receiver path: filter freshly drained raw envelopes. Acks are
  /// consumed; duplicates are dropped; out-of-order envelopes are parked;
  /// everything deliverable — in-order data plus any engine control traffic
  /// (negative tags) — is appended to `out` in per-flow sequence order.
  /// Consumes `raw`.
  void ingest(std::vector<Envelope>& raw, std::vector<Envelope>& out);

  /// Retransmit the oldest unacked envelope of every overdue flow. Called
  /// from the poll paths so timers fire while a rank is otherwise blocked.
  /// Returns the number of retransmissions issued.
  std::size_t maybe_retransmit();

  /// True while any sent envelope is still awaiting acknowledgement.
  [[nodiscard]] bool has_unacked() const;

 private:
  /// Key of a flow: (peer rank, tag).
  using FlowKey = std::pair<Rank, int>;

  struct Retained {
    std::uint64_t seq = 0;
    std::vector<std::byte> payload;
    std::vector<CausalStamp> causal;  ///< re-attached on retransmission
    std::uint32_t attempts = 0;
    std::int64_t next_due_ns = 0;
  };

  struct RecvFlow {
    std::uint64_t next = 0;                   ///< next expected sequence
    std::map<std::uint64_t, Envelope> held;   ///< out-of-order, keyed by seq
  };

  struct Peer {
    bool dirty = false;             ///< progress since the last ack flush
    std::map<int, RecvFlow> flows;  ///< keyed by tag
  };

  void consume_ack(const Envelope& env);
  void flush_acks();

  World& world_;
  Rank rank_;
  std::int64_t rto_base_ns_;
  std::int64_t rto_max_ns_;
  CommStats& stats_;

  std::map<FlowKey, std::uint64_t> next_seq_;         ///< keyed by (dst, tag)
  std::map<FlowKey, std::deque<Retained>> retained_;  ///< keyed by (dst, tag)
  std::vector<Peer> peers_;                           ///< indexed by src rank
};

}  // namespace pagen::mps
