#include "mps/reliable.h"

#include <algorithm>

#include "mps/engine.h"
#include "util/error.h"
#include "util/timer.h"

namespace pagen::mps {

ReliableChannel::ReliableChannel(World& world, Rank rank, CommStats& stats)
    : world_(world),
      rank_(rank),
      rto_base_ns_(world.options().rto_base_ms * 1'000'000),
      rto_max_ns_(world.options().rto_max_ms * 1'000'000),
      stats_(stats),
      peers_(static_cast<std::size_t>(world.size())) {
  PAGEN_CHECK(rto_base_ns_ > 0 && rto_max_ns_ >= rto_base_ns_);
}

void ReliableChannel::send(Rank dst, int tag, std::vector<std::byte> payload,
                           std::vector<CausalStamp> stamps) {
  PAGEN_CHECK_MSG(tag >= 0, "reliable flows use non-negative tags only");
  const std::uint64_t seq = next_seq_[{dst, tag}]++;
  Envelope env{rank_, tag, std::move(payload), seq, std::move(stamps)};
  retained_[{dst, tag}].push_back(
      Retained{seq, env.payload, env.causal, 0, now_ns() + rto_base_ns_});
  world_.deliver(dst, std::move(env), /*attempt=*/0, stats_);
}

void ReliableChannel::ingest(std::vector<Envelope>& raw,
                             std::vector<Envelope>& out) {
  for (Envelope& env : raw) {
    if (env.tag == kAckTag) {
      consume_ack(env);
      continue;
    }
    if (env.tag < 0) {
      // Engine control traffic (abort): not part of any reliable flow.
      out.push_back(std::move(env));
      continue;
    }
    Peer& peer = peers_[static_cast<std::size_t>(env.src)];
    RecvFlow& flow = peer.flows[env.tag];
    if (env.seq < flow.next) {
      // Duplicate (injected, or a retransmission that crossed our ack).
      // Re-mark dirty so a fresh ack stops the sender's retransmit timer.
      stats_.duplicates_dropped += 1;
      world_.invariants().on_filtered(rank_);
      peer.dirty = true;
      continue;
    }
    if (env.seq > flow.next) {
      // Gap: park until the missing predecessors arrive (head-of-line
      // retransmission fills gaps front-to-back).
      const auto [hit, fresh] = flow.held.try_emplace(env.seq, std::move(env));
      (void)hit;
      if (!fresh) {
        stats_.duplicates_dropped += 1;
        world_.invariants().on_filtered(rank_);
        peer.dirty = true;
      }
      continue;
    }
    // In order: surface it plus every consecutively held successor.
    out.push_back(std::move(env));
    flow.next += 1;
    peer.dirty = true;
    while (!flow.held.empty() && flow.held.begin()->first == flow.next) {
      out.push_back(std::move(flow.held.begin()->second));
      flow.held.erase(flow.held.begin());
      flow.next += 1;
    }
  }
  raw.clear();
  flush_acks();
}

std::size_t ReliableChannel::maybe_retransmit() {
  if (retained_.empty()) return 0;
  const std::int64_t now = now_ns();
  std::size_t n = 0;
  for (auto& [flow, window] : retained_) {
    if (window.empty()) continue;
    Retained& head = window.front();
    if (head.next_due_ns > now) continue;
    head.attempts += 1;
    const std::int64_t backoff = std::min(
        rto_base_ns_ << std::min<std::uint32_t>(head.attempts, 5),
        rto_max_ns_);
    head.next_due_ns = now + backoff;
    stats_.retransmits += 1;
    // A retransmission is a *physical* copy of an already-ledgered logical
    // send: tell the checker so in-flight accounting stays exact.
    world_.invariants().on_phantom_send(rank_);
    Envelope copy{rank_, flow.second, head.payload, head.seq, head.causal};
    world_.deliver(flow.first, std::move(copy), head.attempts, stats_);
    ++n;
  }
  return n;
}

bool ReliableChannel::has_unacked() const {
  for (const auto& [flow, window] : retained_) {
    if (!window.empty()) return true;
  }
  return false;
}

void ReliableChannel::consume_ack(const Envelope& env) {
  stats_.acks_received += 1;
  const Rank dst = env.src;  // the acking receiver is our send destination
  for_each_packed<AckItem>(env.payload, [&](const AckItem& item) {
    const auto it = retained_.find({dst, item.tag});
    if (it == retained_.end()) return;
    auto& window = it->second;
    while (!window.empty() && window.front().seq < item.cum) {
      window.pop_front();
    }
  });
}

void ReliableChannel::flush_acks() {
  for (std::size_t src = 0; src < peers_.size(); ++src) {
    Peer& peer = peers_[src];
    if (!peer.dirty) continue;
    peer.dirty = false;
    std::vector<std::byte> payload;
    for (const auto& [tag, flow] : peer.flows) {
      pack_one(payload, AckItem{.tag = tag, .cum = flow.next});
    }
    if (payload.empty()) continue;
    stats_.acks_sent += 1;
    world_.deliver_control(
        static_cast<Rank>(src),
        Envelope{rank_, kAckTag, std::move(payload), 0, {}});
  }
}

}  // namespace pagen::mps
