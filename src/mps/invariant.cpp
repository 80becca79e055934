#include "mps/invariant.h"

#ifdef PAGEN_CHECK_INVARIANTS

#include <cstdlib>
#include <sstream>
#include <thread>

#include "util/timer.h"

namespace pagen::mps {
namespace {

/// Default minimum time every rank must have been blocked (with zero
/// envelopes in flight) before the world is declared deadlocked.
/// Overridable via PAGEN_STALL_THRESHOLD_MS — raise it for protocols that
/// legitimately idle longer between retries, lower it in deadlock tests.
constexpr std::int64_t kDefaultStallThresholdNs = 500'000'000;  // 500 ms

std::int64_t stall_threshold_from_env() {
  // Read once per World, on the constructing thread, before any rank thread
  // exists — safe despite getenv's process-global state.
  const char* ms = std::getenv("PAGEN_STALL_THRESHOLD_MS");
  if (ms == nullptr) return kDefaultStallThresholdNs;
  const long parsed = std::strtol(ms, nullptr, 10);
  if (parsed <= 0) return kDefaultStallThresholdNs;
  return static_cast<std::int64_t>(parsed) * 1'000'000;
}

}  // namespace

InvariantChecker::InvariantChecker(int nranks)
    : nranks_(nranks),
      ranks_(static_cast<std::size_t>(nranks)),
      stall_threshold_ns_(stall_threshold_from_env()) {}

std::uint64_t InvariantChecker::on_send(Rank src, Rank dst, int tag) {
  RankState& me = ranks_[static_cast<std::size_t>(src)];
  // Count the envelope as in flight *before* it becomes visible in the
  // destination mailbox, so the stall probe can never observe a world where
  // a message exists but in_flight_ reads zero.
  in_flight_.fetch_add(1);
  activity_.fetch_add(1);
  me.stalled_since_ns.store(-1);
  me.fruitless_waits.store(0);
  return me.next_send_seq[{dst, tag}]++;
}

void InvariantChecker::on_phantom_send(Rank src) {
  RankState& me = ranks_[static_cast<std::size_t>(src)];
  in_flight_.fetch_add(1);
  activity_.fetch_add(1);
  me.stalled_since_ns.store(-1);
  me.fruitless_waits.store(0);
}

void InvariantChecker::on_filtered(Rank r) {
  RankState& me = ranks_[static_cast<std::size_t>(r)];
  in_flight_.fetch_sub(1);
  activity_.fetch_add(1);
  me.stalled_since_ns.store(-1);
  me.fruitless_waits.store(0);
}

void InvariantChecker::on_receive(Rank dst, const Envelope& env) {
  if (env.tag == kAbortTag || env.tag == kAckTag) {
    return;  // engine-internal, bypasses accounting
  }
  RankState& me = ranks_[static_cast<std::size_t>(dst)];
  std::uint64_t& expected = me.next_recv_seq[{env.src, env.tag}];
  if (env.seq != expected) {
    std::ostringstream os;
    os << "non-overtaking delivery violated: rank " << dst
       << " received seq " << env.seq << " from rank " << env.src << " tag "
       << env.tag << ", expected seq " << expected;
    throw InvariantViolation(os.str());
  }
  ++expected;
  in_flight_.fetch_sub(1);
  activity_.fetch_add(1);
  me.stalled_since_ns.store(-1);
  me.fruitless_waits.store(0);
}

void InvariantChecker::enter_wait(Rank r, const char* what) {
  RankState& me = ranks_[static_cast<std::size_t>(r)];
  me.wait_kind.store(what);
  // Start (or continue) the stall clock: it only resets on real progress —
  // an envelope sent or received, or a completed collective — so fruitless
  // 20 ms poll iterations accumulate into one long observable stall.
  std::int64_t expected = -1;
  me.stalled_since_ns.compare_exchange_strong(expected, now_ns());
}

void InvariantChecker::leave_wait(Rank r, bool made_progress) {
  RankState& me = ranks_[static_cast<std::size_t>(r)];
  if (made_progress) {
    me.wait_kind.store(nullptr);
    me.stalled_since_ns.store(-1);
    me.fruitless_waits.store(0);
  }
  // After a fruitless wait, wait_kind stays set: the rank is about to
  // re-enter the same wait, and the deadlock dump should name the site it
  // is parked at, not the instant between two retries.
}

bool InvariantChecker::all_ranks_stalled(std::int64_t now) const {
  for (const RankState& rs : ranks_) {
    if (rs.exited.load()) continue;  // can never send again
    const std::int64_t since = rs.stalled_since_ns.load();
    if (since < 0 || now - since < stall_threshold_ns_) return false;
  }
  return true;
}

std::string InvariantChecker::dump_wait_states(std::int64_t now) const {
  std::ostringstream os;
  for (int r = 0; r < nranks_; ++r) {
    const RankState& rs = ranks_[static_cast<std::size_t>(r)];
    os << "\n  rank " << r << ": ";
    if (rs.exited.load()) {
      os << "exited";
      continue;
    }
    const char* kind = rs.wait_kind.load();
    const std::int64_t since = rs.stalled_since_ns.load();
    os << (kind != nullptr ? kind : "between waits");
    if (since >= 0) {
      os << ", stalled for " << (now - since) / 1'000'000 << " ms";
    }
  }
  return os.str();
}

void InvariantChecker::on_wait_timeout(Rank r) {
  RankState& me = ranks_[static_cast<std::size_t>(r)];
  // A single empty wait is routine (e.g. a test probing that nothing
  // arrives); only a streak of them makes this rank a deadlock candidate.
  if (me.fruitless_waits.fetch_add(1) + 1 < 2) return;
  if (in_flight_.load() != 0) return;
  if (!all_ranks_stalled(now_ns())) return;

  // Candidate deadlock. Confirm with a second look after a delay: if any
  // rank sends, receives, or finishes a collective in between, the activity
  // counter moves and we stand down. This closes the race where a rank was
  // *about to* act when the first screen passed.
  const std::uint64_t before = activity_.load();
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(stall_threshold_ns_ / 4));
  const std::int64_t now = now_ns();
  if (activity_.load() != before || in_flight_.load() != 0 ||
      !all_ranks_stalled(now)) {
    return;
  }
  std::ostringstream os;
  os << "mps deadlock: every rank is blocked with 0 envelopes in flight "
     << "(stall threshold " << stall_threshold_ns_ / 1'000'000
     << " ms; is the flush-after-receive rule disabled?). Wait states:"
     << dump_wait_states(now);
  throw DeadlockError(os.str());
}

void InvariantChecker::note_rank_exit(Rank r) {
  ranks_[static_cast<std::size_t>(r)].exited.store(true);
}

void InvariantChecker::verify_termination() const {
  // Post-join, single-threaded: thread::join established happens-before for
  // every rank's sequence table, so plain reads are safe here.
  std::ostringstream os;
  bool lost = false;
  for (int src = 0; src < nranks_; ++src) {
    const RankState& s = ranks_[static_cast<std::size_t>(src)];
    for (const auto& [flow, sent] : s.next_send_seq) {
      const auto& [dst, tag] = flow;
      const RankState& d = ranks_[static_cast<std::size_t>(dst)];
      const auto it = d.next_recv_seq.find({src, tag});
      const std::uint64_t received =
          it != d.next_recv_seq.end() ? it->second : 0;
      if (received != sent) {
        if (!lost) os << "lost messages at termination:";
        lost = true;
        os << "\n  " << src << " -> " << dst << " tag " << tag << ": sent "
           << sent << ", received " << received;
      }
    }
  }
  if (lost) throw InvariantViolation(os.str());
}

}  // namespace pagen::mps

#endif  // PAGEN_CHECK_INVARIANTS
