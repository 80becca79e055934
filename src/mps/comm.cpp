#include "mps/comm.h"

#include <algorithm>
#include <functional>

#include "mps/delivery_hook.h"
#include "mps/engine.h"
#include "obs/session.h"
#include "util/error.h"
#include "util/timer.h"

namespace pagen::mps {
namespace {

/// Blocking waits shorter than this are not worth a trace event; longer
/// ones are exactly the stalls Section 3.5's load analysis is after.
constexpr std::int64_t kWaitSpanThresholdNs = 1'000'000;  // 1 ms

/// Reliable-mode blocking waits are chopped into chunks this long so the
/// retransmission timers (WorldOptions::rto_base_ms and up) are serviced
/// while the rank is otherwise blocked on an empty mailbox.
constexpr std::int64_t kReliableWaitChunkMs = 5;

std::vector<std::byte> encode_u64(std::uint64_t v) {
  std::vector<std::byte> b;
  pack_one(b, v);
  return b;
}

std::uint64_t decode_u64(const std::vector<std::byte>& b) {
  const auto items = unpack<std::uint64_t>(b);
  PAGEN_CHECK(items.size() == 1);
  return items[0];
}

std::vector<std::byte> encode_double(double v) {
  std::vector<std::byte> b;
  pack_one(b, v);
  return b;
}

double decode_double(const std::vector<std::byte>& b) {
  const auto items = unpack<double>(b);
  PAGEN_CHECK(items.size() == 1);
  return items[0];
}

}  // namespace

Comm::Comm(World& world, Rank rank, obs::RankObserver* ob)
    : world_(world), rank_(rank), obs_(ob) {
  PAGEN_CHECK(rank >= 0 && rank < world.size());
  stats_.envelopes_to.assign(static_cast<std::size_t>(world.size()), 0);
  if (world.reliable()) {
    reliable_ = std::make_unique<ReliableChannel>(world, rank, stats_);
  }
}

int Comm::size() const { return world_.size(); }

void Comm::send_bytes(Rank dst, int tag, std::vector<std::byte> payload) {
  send_bytes(dst, tag, std::move(payload), {});
}

void Comm::send_bytes(Rank dst, int tag, std::vector<std::byte> payload,
                      std::vector<CausalStamp> stamps) {
  PAGEN_CHECK_MSG(dst >= 0 && dst < size(), "send to invalid rank " << dst);
  // Abort fast-fail and the fault script run before any accounting, so a
  // send that crashes (InjectedCrash) or fast-fails was never counted.
  world_.precheck_send(rank_);
  stats_.envelopes_sent += 1;
  stats_.bytes_sent += payload.size();
  stats_.envelopes_to[static_cast<std::size_t>(dst)] += 1;
  stats_.sent_by_tag[tag] += 1;
  stats_.causal_stamps += stamps.size();
  if (obs_ != nullptr && obs_->trace().sample_tick()) {
    obs_->trace().instant("send");
  }
  if (reliable_ != nullptr) {
    // The channel stamps seq (in lockstep with the checker's ledger entry)
    // and owns retransmission until the flow is acked.
    (void)world_.invariants().on_send(rank_, dst, tag);
    reliable_->send(dst, tag, std::move(payload), std::move(stamps));
    return;
  }
  const std::uint64_t seq = world_.invariants().on_send(rank_, dst, tag);
  Envelope env{rank_, tag, std::move(payload), seq, std::move(stamps)};
  if (world_.hook() != nullptr) {
    // Schedule-controlled world: the hook owns the envelope until its
    // scheduler releases it through a poll on dst.
    world_.hook()->park(dst, std::move(env));
    return;
  }
  world_.mailbox(dst).push(std::move(env));
}

bool Comm::poll(std::vector<Envelope>& out) {
  const std::size_t before = out.size();
  if (world_.hook() != nullptr) {
    // Scheduling point: the hook decides whether this poll observes a
    // pending envelope or comes back empty-handed. The invariant wait
    // brackets stay out of the way — stall probing is the virtual
    // scheduler's job here — but receipt accounting is unchanged, so the
    // ledger audit still runs per explored schedule in debug builds.
    (void)world_.hook()->on_poll(rank_, /*blocking=*/false, out);
    account_received(out, before);
    return out.size() > before;
  }
  if (reliable_ == nullptr) {
    const bool got = world_.mailbox(rank_).try_drain(out);
    account_received(out, before);
    return got;
  }
  take_stash(out);
  scratch_.clear();
  world_.mailbox(rank_).try_drain(scratch_);
  reliable_->ingest(scratch_, out);
  reliable_->maybe_retransmit();
  account_received(out, before);
  return out.size() > before;
}

bool Comm::poll_wait(std::vector<Envelope>& out,
                     std::chrono::milliseconds timeout) {
  const std::size_t before = out.size();
  if (world_.hook() != nullptr) {
    // Blocking scheduling point: parks until the hook's scheduler releases
    // an envelope (or an abort) to this rank — `timeout` is virtual time
    // the hook does not model, so it is ignored by contract.
    (void)world_.hook()->on_poll(rank_, /*blocking=*/true, out);
    account_received(out, before);
    return out.size() > before;
  }
  if (reliable_ == nullptr && obs_ == nullptr) {
    const bool got = wait_drain_checked(out, timeout);
    account_received(out, before);
    return got;
  }
  // Instrumented path: surface waits long enough to matter as retroactive
  // "idle_wait" spans — the time a rank spends blocked on an unresolved
  // dependency chain or on peers that have nothing for it yet.
  const std::int64_t start = now_ns();
  if (reliable_ != nullptr && take_stash(out)) {
    account_received(out, before);
    return true;
  }
  const bool got = reliable_ != nullptr
                       ? wait_filtered(out, before, timeout)
                       : wait_drain_checked(out, timeout);
  if (obs_ != nullptr) {
    const std::int64_t dur = now_ns() - start;
    if (dur >= kWaitSpanThresholdNs) {
      obs_->trace().span_at("idle_wait", start, dur);
    }
  }
  account_received(out, before);
  return got;
}

bool Comm::wait_filtered(std::vector<Envelope>& out, std::size_t before,
                         std::chrono::milliseconds timeout) {
  InvariantChecker& inv = world_.invariants();
  const std::int64_t deadline = now_ns() + timeout.count() * 1'000'000;
  for (;;) {
    const std::int64_t remaining_ns = deadline - now_ns();
    const std::chrono::milliseconds chunk(std::clamp<std::int64_t>(
        (remaining_ns + 999'999) / 1'000'000, 0, kReliableWaitChunkMs));
    scratch_.clear();
    inv.enter_wait(rank_, "poll_wait");
    (void)world_.mailbox(rank_).wait_drain(scratch_, chunk);
    reliable_->ingest(scratch_, out);
    const bool progressed = out.size() > before;
    inv.leave_wait(rank_, progressed);
    reliable_->maybe_retransmit();
    if (progressed) return true;
    if (now_ns() >= deadline) {
      // The whole timeout elapsed with nothing deliverable: this is the
      // deadlock probe's trigger point, same as the unreliable path.
      inv.on_wait_timeout(rank_);
      return false;
    }
  }
}

bool Comm::wait_drain_checked(std::vector<Envelope>& out,
                              std::chrono::milliseconds timeout) {
  InvariantChecker& inv = world_.invariants();
  inv.enter_wait(rank_, "poll_wait");
  const bool got = world_.mailbox(rank_).wait_drain(out, timeout);
  inv.leave_wait(rank_, got);
  // A fruitless blocking wait is the deadlock probe's trigger point: this
  // rank is demonstrably idle, so it does the global stall check.
  if (!got) inv.on_wait_timeout(rank_);
  return got;
}

std::size_t Comm::pending() const { return world_.mailbox(rank_).size(); }

void Comm::account_received(std::vector<Envelope>& out, std::size_t before) {
  // Drain-safe abort: account every data envelope of the batch before an
  // abort envelope unwinds, so stats and in-flight bookkeeping stay exact
  // even when the batch mixes real traffic with the engine's wake-up.
  bool aborted = false;
  std::size_t keep = before;
  for (std::size_t i = before; i < out.size(); ++i) {
    if (out[i].tag == kAbortTag) {
      aborted = true;
      continue;
    }
    world_.invariants().on_receive(rank_, out[i]);
    stats_.envelopes_received += 1;
    stats_.bytes_received += out[i].payload.size();
    stats_.received_by_tag[out[i].tag] += 1;
    if (keep != i) out[keep] = std::move(out[i]);
    ++keep;
  }
  out.resize(keep);
  if (aborted) throw WorldAborted();
}

bool Comm::take_stash(std::vector<Envelope>& out) {
  if (stash_.empty()) return false;
  out.insert(out.end(), std::make_move_iterator(stash_.begin()),
             std::make_move_iterator(stash_.end()));
  stash_.clear();
  return true;
}

std::vector<std::vector<std::byte>> Comm::exchange(const char* op,
                                                   std::vector<std::byte> blob) {
  stats_.collectives += 1;
  stats_.collective_bytes += blob.size();
  const auto sp = obs::span(obs_, op);
  DeliveryHook* hook = world_.hook();
  // The rendezvous cedes this rank's scheduling turn: the hook must learn
  // the rank is about to block on peers (enter never blocks — the
  // rendezvous itself does) and, on the way out, park the rank until the
  // scheduler resumes it. The exception path (poisoned world) skips the
  // park so teardown can't re-enter the scheduler.
  std::function<void()> service;
  if (reliable_ != nullptr) {
    service = [this] {
      scratch_.clear();
      world_.mailbox(rank_).try_drain(scratch_);
      reliable_->ingest(scratch_, stash_);
      reliable_->maybe_retransmit();
    };
  }
  if (hook != nullptr) hook->on_collective_enter(rank_);
  InvariantChecker& inv = world_.invariants();
  inv.enter_wait(rank_, "collective");
  try {
    auto result = world_.collectives().exchange(
        rank_, std::move(blob), service,
        std::chrono::milliseconds(kReliableWaitChunkMs));
    inv.leave_wait(rank_, /*made_progress=*/true);
    if (hook != nullptr) hook->on_collective_exit(rank_, /*park=*/true);
    return result;
  } catch (...) {
    inv.leave_wait(rank_, /*made_progress=*/false);
    if (hook != nullptr) hook->on_collective_exit(rank_, /*park=*/false);
    throw;
  }
}

void Comm::barrier() { (void)exchange("barrier", {}); }

std::uint64_t Comm::allreduce_sum(std::uint64_t v) {
  const auto all = exchange("allreduce_sum", encode_u64(v));
  std::uint64_t sum = 0;
  for (const auto& blob : all) sum += decode_u64(blob);
  return sum;
}

std::uint64_t Comm::allreduce_max(std::uint64_t v) {
  const auto all = exchange("allreduce_max", encode_u64(v));
  std::uint64_t best = 0;
  for (const auto& blob : all) best = std::max(best, decode_u64(blob));
  return best;
}

double Comm::allreduce_sum_double(double v) {
  const auto all = exchange("allreduce_sum", encode_double(v));
  double sum = 0;
  for (const auto& blob : all) sum += decode_double(blob);
  return sum;
}

std::vector<std::uint64_t> Comm::allgather(std::uint64_t v) {
  const auto all = exchange("allgather", encode_u64(v));
  std::vector<std::uint64_t> out;
  out.reserve(all.size());
  for (const auto& blob : all) out.push_back(decode_u64(blob));
  return out;
}

std::vector<std::vector<std::byte>> Comm::allgather_bytes(
    std::vector<std::byte> blob) {
  return exchange("allgather_bytes", std::move(blob));
}

std::uint64_t Comm::broadcast(std::uint64_t v, Rank root) {
  PAGEN_CHECK(root >= 0 && root < size());
  const auto all = exchange("broadcast", encode_u64(v));
  return decode_u64(all[static_cast<std::size_t>(root)]);
}

}  // namespace pagen::mps
