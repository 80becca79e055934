// Debug-build invariant checking for the mps runtime.
//
// The paper's correctness rests on three message-passing properties that the
// production build merely assumes:
//
//  1. **Non-overtaking delivery** — envelopes between one (src, dst, tag)
//     triple arrive in send order (the MPI guarantee the resolved-message
//     protocol relies on, docs/protocol.md §5).
//  2. **Nothing lost** — at clean termination every envelope ever sent has
//     been drained by its destination; a sent-but-never-received message
//     means a rank stopped polling too early.
//  3. **No silent stall** — the RRP flush-after-receive rule (Section 3.5.2)
//     exists precisely to prevent the cyclic wait where every rank blocks on
//     a response another rank is sitting on. A protocol bug here shows up as
//     an eternal poll loop, which hangs ctest instead of failing it.
//
// InvariantChecker turns all three into runtime assertions. It is compiled
// in only under PAGEN_CHECK_INVARIANTS (a CMake option, ON by default for
// Debug builds); otherwise this header defines an empty stub whose calls
// inline to nothing, so Release builds pay zero cost — not even a branch.
//
// Thread-safety design: per-rank sequence tables are written only by their
// owning rank's thread (sends happen on src's thread, receives on dst's),
// so they need no locks. The cross-thread state (in-flight count, per-rank
// wait flags, activity counter) is std::atomic with seq_cst operations —
// this is a debug checker, so the memory ordering is chosen for obviousness
// rather than speed; the TSan suite validates the discipline.
#pragma once

#include <cstdint>

#include "mps/message.h"
#include "util/error.h"
#include "util/types.h"

#ifdef PAGEN_CHECK_INVARIANTS
#include <atomic>
#include <map>
#include <utility>
#include <vector>
#endif

namespace pagen::mps {

/// Base of every invariant-checker failure. Derives from CheckError: a
/// violated runtime invariant is a programming error, like a failed check.
class InvariantViolation : public CheckError {
 public:
  explicit InvariantViolation(const std::string& what) : CheckError(what) {}
};

/// All ranks are blocked with nothing in flight: the world can make no
/// further progress. The message carries each rank's wait state.
class DeadlockError : public InvariantViolation {
 public:
  explicit DeadlockError(const std::string& what) : InvariantViolation(what) {}
};

#ifdef PAGEN_CHECK_INVARIANTS

/// One checker per World; every hook is called by Comm or the engine, never
/// by user code. See the header comment for the threading discipline.
class InvariantChecker {
 public:
  explicit InvariantChecker(int nranks);

  /// Send-path hook (src's thread). Returns the sequence number to stamp on
  /// the envelope: per-(src, dst, tag), starting at 0. In reliable mode the
  /// ReliableChannel stamps the (identical, lockstep) sequence instead and
  /// this call only feeds the ledger and in-flight accounting.
  std::uint64_t on_send(Rank src, Rank dst, int tag);

  /// A *physical* copy of an already-ledgered logical send entered the
  /// world: a retransmission or an injected duplicate. Counts toward
  /// in-flight (the copy sits in a mailbox) but not toward the sequence
  /// ledger — the matching removal is on_filtered or on_receive.
  void on_phantom_send(Rank src);

  /// A physical envelope was removed without a logical delivery: dropped by
  /// the fault injector, or discarded by receiver-side dedup. Balances
  /// on_send / on_phantom_send in-flight accounting.
  void on_filtered(Rank r);

  /// Receive-path hook (dst's thread). Asserts the envelope's sequence
  /// number is the next expected one for (src, dst, tag) — the
  /// non-overtaking guarantee — and balances the in-flight accounting.
  void on_receive(Rank dst, const Envelope& env);

  /// Blocking-wait bracket (owner thread). `what` must be a string literal
  /// ("poll_wait" / "collective"); it names the wait in deadlock dumps and
  /// stays attached to the rank across fruitless retries — only a wait that
  /// made progress clears it.
  void enter_wait(Rank r, const char* what);
  void leave_wait(Rank r, bool made_progress);

  /// A blocking wait elapsed with nothing delivered. Runs the stall probe;
  /// throws DeadlockError (with a per-rank wait-state dump) when the world
  /// is conclusively stuck. See stall_threshold_ns_ for the tuning knob.
  void on_wait_timeout(Rank r);

  /// The rank's body returned (or threw); it can never send again. Exited
  /// ranks count as permanently stalled in the deadlock probe.
  void note_rank_exit(Rank r);

  /// Post-join audit (driver thread, after every exception-free run, fault
  /// plans included: retransmission rebalances the ledger, and a crashed
  /// world never completes): every (src, dst, tag) sent-count must equal
  /// the receive-count, else throws InvariantViolation listing every lost
  /// message flow.
  void verify_termination() const;

 private:
  /// Key of a sequence table entry: (peer rank, tag).
  using FlowKey = std::pair<Rank, int>;

  struct RankState {
    // Owner-thread-only sequence tables (no locks; see header comment).
    std::map<FlowKey, std::uint64_t> next_send_seq;  ///< keyed by (dst, tag)
    std::map<FlowKey, std::uint64_t> next_recv_seq;  ///< keyed by (src, tag)

    // Cross-thread wait state, read by the stall probe.
    std::atomic<const char*> wait_kind{nullptr};  ///< null = not blocked
    std::atomic<std::int64_t> stalled_since_ns{-1};  ///< -1 = making progress
    std::atomic<int> fruitless_waits{0};
    std::atomic<bool> exited{false};
  };

  [[nodiscard]] bool all_ranks_stalled(std::int64_t now) const;
  [[nodiscard]] std::string dump_wait_states(std::int64_t now) const;

  int nranks_;
  std::vector<RankState> ranks_;
  std::atomic<std::int64_t> in_flight_{0};  ///< sent minus received envelopes
  std::atomic<std::uint64_t> activity_{0};  ///< bumps on every send/receive
  std::int64_t stall_threshold_ns_;
};

#else  // !PAGEN_CHECK_INVARIANTS

/// Release stub: every hook is an empty inline, so checker call sites in
/// Comm and the engine compile to nothing.
class InvariantChecker {
 public:
  explicit InvariantChecker(int /*nranks*/) {}
  std::uint64_t on_send(Rank /*src*/, Rank /*dst*/, int /*tag*/) { return 0; }
  void on_phantom_send(Rank /*src*/) {}
  void on_filtered(Rank /*r*/) {}
  void on_receive(Rank /*dst*/, const Envelope& /*env*/) {}
  void enter_wait(Rank /*r*/, const char* /*what*/) {}
  void leave_wait(Rank /*r*/, bool /*made_progress*/) {}
  void on_wait_timeout(Rank /*r*/) {}
  void note_rank_exit(Rank /*r*/) {}
  void verify_termination() const {}
};

#endif  // PAGEN_CHECK_INVARIANTS

}  // namespace pagen::mps
