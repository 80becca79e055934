// Tests for the debug-build invariant checker (mps/invariant.h): sequence
// stamping, non-overtaking enforcement, the lost-message termination audit,
// deadlock detection, and — the regression this subsystem exists for — the
// RRP flush-after-receive rule (docs/protocol.md §5). Every test skips when
// built without PAGEN_CHECK_INVARIANTS; the deadlock cases would otherwise
// hang ctest instead of failing it.
#include "mps/invariant.h"

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/generate.h"
#include "mps/comm.h"
#include "mps/engine.h"
#include "mps/message.h"

namespace pagen::mps {
namespace {

using namespace std::chrono_literals;

#ifdef PAGEN_CHECK_INVARIANTS
constexpr bool kCheckerEnabled = true;
#else
constexpr bool kCheckerEnabled = false;
#endif

#define PAGEN_REQUIRE_CHECKER()                                         \
  do {                                                                  \
    if (!kCheckerEnabled) {                                             \
      GTEST_SKIP() << "built without PAGEN_CHECK_INVARIANTS";           \
    }                                                                   \
  } while (false)

/// Sets PAGEN_STALL_THRESHOLD_MS for the test's lifetime so deadlock
/// detection fires in tens of milliseconds instead of the 500ms default.
/// The checker reads the variable once, at World construction, so setting
/// it before run_ranks/generate is race-free.
class ScopedStallThreshold {
 public:
  explicit ScopedStallThreshold(const char* ms) {
    const char* old = std::getenv("PAGEN_STALL_THRESHOLD_MS");
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    setenv("PAGEN_STALL_THRESHOLD_MS", ms, /*overwrite=*/1);
  }
  ~ScopedStallThreshold() {
    if (had_value_) {
      setenv("PAGEN_STALL_THRESHOLD_MS", saved_.c_str(), 1);
    } else {
      unsetenv("PAGEN_STALL_THRESHOLD_MS");
    }
  }
  ScopedStallThreshold(const ScopedStallThreshold&) = delete;
  ScopedStallThreshold& operator=(const ScopedStallThreshold&) = delete;

 private:
  std::string saved_;
  bool had_value_ = false;
};

// ---------------------------------------------------------------------------
// Sequence stamping and non-overtaking enforcement. These drive a World
// directly from the test thread (both endpoints on one thread trivially
// satisfies the checker's owner-thread discipline).
// ---------------------------------------------------------------------------

TEST(InvariantChecker, StampsIndependentSequencesPerFlow) {
  PAGEN_REQUIRE_CHECKER();
  World w(2);
  Comm c0(w, 0);
  Comm c1(w, 1);

  for (std::uint64_t i = 0; i < 3; ++i) {
    c0.send_item<std::uint64_t>(1, /*tag=*/7, i);
  }
  c0.send_item<std::uint64_t>(1, /*tag=*/8, 99);  // separate flow, seq 0
  c1.send_item<std::uint64_t>(0, /*tag=*/7, 42);  // separate src, seq 0

  std::vector<Envelope> inbox;
  ASSERT_TRUE(c1.poll(inbox));
  ASSERT_EQ(inbox.size(), 4u);
  EXPECT_EQ(inbox[0].seq, 0u);
  EXPECT_EQ(inbox[1].seq, 1u);
  EXPECT_EQ(inbox[2].seq, 2u);
  EXPECT_EQ(inbox[3].seq, 0u) << "tag 8 is its own flow";

  inbox.clear();
  ASSERT_TRUE(c0.poll(inbox));
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].seq, 0u) << "rank 1's first send on its own flow";

  // Everything sent was received: the termination audit must pass.
  EXPECT_NO_THROW(w.invariants().verify_termination());
}

TEST(InvariantChecker, DetectsOutOfOrderDelivery) {
  PAGEN_REQUIRE_CHECKER();
  World w(2);
  Comm c1(w, 1);

  // Forge an envelope that claims to be send #5 of a flow whose receiver
  // has seen nothing — as if four earlier envelopes were overtaken.
  w.mailbox(1).push(Envelope{/*src=*/0, /*tag=*/7, {}, /*seq=*/5, {}});
  std::vector<Envelope> inbox;
  try {
    (void)c1.poll(inbox);
    FAIL() << "poll accepted an out-of-order envelope";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("non-overtaking"), std::string::npos)
        << e.what();
  }
}

TEST(InvariantChecker, DetectsLostMessageAtTermination) {
  PAGEN_REQUIRE_CHECKER();
  try {
    run_ranks(2, [](Comm& comm) {
      if (comm.rank() == 0) {
        comm.send_item<int>(1, /*tag=*/3, 17);
      }
      // Rank 1 returns without ever polling: the envelope is lost.
    });
    FAIL() << "termination audit missed a sent-but-never-received envelope";
  } catch (const InvariantViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lost messages"), std::string::npos) << what;
    EXPECT_NE(what.find("0 -> 1"), std::string::npos) << what;
  }
}

TEST(InvariantChecker, CleanWorldPassesTerminationAudit) {
  // Send + receive on every flow: run_ranks' post-join audit stays silent.
  // (Meaningful in debug builds; still a valid smoke test in Release.)
  EXPECT_NO_THROW(run_ranks(2, [](Comm& comm) {
    const auto peer = static_cast<Rank>(1 - comm.rank());
    comm.send_item<int>(peer, /*tag=*/1, comm.rank());
    std::vector<Envelope> inbox;
    while (!comm.poll_wait(inbox, 50ms)) {
    }
    ASSERT_EQ(inbox.size(), 1u);
  }));
}

// ---------------------------------------------------------------------------
// Deadlock detection.
// ---------------------------------------------------------------------------

TEST(InvariantChecker, ReportsAllRanksBlockedAsDeadlock) {
  PAGEN_REQUIRE_CHECKER();
  const ScopedStallThreshold fast("60");
  // Three ranks wait forever for traffic nobody sends: a pure receive
  // cycle. Without the checker this loops until the ctest timeout.
  try {
    run_ranks(3, [](Comm& comm) {
      std::vector<Envelope> inbox;
      for (;;) {
        (void)comm.poll_wait(inbox, 10ms);
      }
    });
    FAIL() << "deadlocked world terminated cleanly?";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("every rank is blocked"), std::string::npos) << what;
    // The dump names each rank's wait site.
    EXPECT_NE(what.find("poll_wait"), std::string::npos) << what;
  }
}

TEST(InvariantChecker, DoesNotFlagSlowButLiveTraffic) {
  PAGEN_REQUIRE_CHECKER();
  const ScopedStallThreshold fast("60");
  // A ping-pong whose every hop dwells longer than the stall threshold:
  // the receiver looks dead to a naive wall-clock probe, but at any instant
  // either an envelope is in flight or one rank is running (dwelling, not
  // blocked) — both screens the checker applies before declaring deadlock.
  EXPECT_NO_THROW(run_ranks(2, [](Comm& comm) {
    constexpr int kHops = 4;
    if (comm.rank() == 0) comm.send_item<int>(1, /*tag=*/1, 0);
    std::vector<Envelope> inbox;
    int seen = 0;
    while (seen < kHops) {
      inbox.clear();
      if (!comm.poll_wait(inbox, 10ms)) continue;
      for (const Envelope& env : inbox) {
        const int hop = unpack<int>(env.payload)[0];
        ++seen;
        if (hop + 1 < 2 * kHops) {
          std::this_thread::sleep_for(90ms);  // dwell past the threshold
          comm.send_item<int>(env.src, /*tag=*/1, hop + 1);
        }
      }
    }
  }));
}

// ---------------------------------------------------------------------------
// The regression this subsystem exists to catch: RRP without the
// flush-after-receive rule (docs/protocol.md §5). Every rank withholds its
// buffered responses until its own requests resolve — a circular wait the
// paper's rule exists to break. The checker must convert the hang into a
// diagnosable failure.
// ---------------------------------------------------------------------------

TEST(InvariantChecker, CatchesRrpDeadlockWhenFlushRuleDisabled) {
  PAGEN_REQUIRE_CHECKER();
  const ScopedStallThreshold fast("100");
  const PaConfig cfg{.n = 4000, .x = 1, .p = 0.5, .seed = 7};
  core::ParallelOptions opt;
  opt.ranks = 8;
  opt.scheme = partition::Scheme::kRrp;
  opt.flush_resolved_after_batch = false;  // the protocol bug under test
  // A huge buffer so capacity flushes can't accidentally break the cycle.
  opt.buffer_capacity = 1u << 20;
  try {
    (void)core::generate(cfg, opt);
    FAIL() << "RRP with the flush rule disabled should deadlock; did the "
              "resolution protocol change?";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("every rank is blocked"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace pagen::mps
