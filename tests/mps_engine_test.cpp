#include "mps/engine.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "util/error.h"

namespace pagen::mps {
namespace {

using namespace std::chrono_literals;

TEST(Engine, RunsEveryRankExactlyOnce) {
  std::atomic<int> count{0};
  std::mutex mu;
  std::set<Rank> seen;
  const RunResult r = run_ranks(7, [&](Comm& comm) {
    ++count;
    std::lock_guard lock(mu);
    seen.insert(comm.rank());
  });
  EXPECT_EQ(count.load(), 7);
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(r.rank_stats.size(), 7u);
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(Engine, SizeVisibleToRanks) {
  run_ranks(3, [](Comm& comm) { EXPECT_EQ(comm.size(), 3); });
}

TEST(Engine, PointToPointDelivery) {
  run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_item<std::uint64_t>(1, 5, 99);
    } else {
      std::vector<Envelope> in;
      while (!comm.poll_wait(in, 100ms)) {
      }
      ASSERT_EQ(in.size(), 1u);
      EXPECT_EQ(in[0].src, 0);
      EXPECT_EQ(in[0].tag, 5);
      EXPECT_EQ(unpack<std::uint64_t>(in[0].payload)[0], 99u);
    }
  });
}

TEST(Engine, SelfSendDelivered) {
  run_ranks(1, [](Comm& comm) {
    comm.send_item<std::uint64_t>(0, 1, 7);
    std::vector<Envelope> in;
    EXPECT_TRUE(comm.poll(in));
    ASSERT_EQ(in.size(), 1u);
    EXPECT_EQ(unpack<std::uint64_t>(in[0].payload)[0], 7u);
  });
}

TEST(Engine, RingPassAroundAllRanks) {
  constexpr int kRanks = 6;
  run_ranks(kRanks, [](Comm& comm) {
    // Token starts at 0, visits every rank, accumulating rank ids.
    if (comm.rank() == 0) comm.send_item<std::uint64_t>(1 % kRanks, 1, 0);
    std::vector<Envelope> in;
    while (!comm.poll_wait(in, 100ms)) {
    }
    const auto token = unpack<std::uint64_t>(in[0].payload)[0] +
                       static_cast<std::uint64_t>(comm.rank());
    if (comm.rank() != 0) {
      comm.send_item<std::uint64_t>((comm.rank() + 1) % kRanks, 1, token);
    } else {
      EXPECT_EQ(token, 0u + 1 + 2 + 3 + 4 + 5);
    }
  });
}

TEST(Engine, StatsCountEnvelopesAndBytes) {
  const RunResult r = run_ranks(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_item<std::uint64_t>(1, 1, 42);
    } else {
      std::vector<Envelope> in;
      while (!comm.poll_wait(in, 100ms)) {
      }
    }
    comm.barrier();
  });
  EXPECT_EQ(r.rank_stats[0].envelopes_sent, 1u);
  EXPECT_EQ(r.rank_stats[0].bytes_sent, sizeof(std::uint64_t));
  EXPECT_EQ(r.rank_stats[1].envelopes_received, 1u);
  EXPECT_EQ(r.rank_stats[1].bytes_received, sizeof(std::uint64_t));
}

TEST(Engine, StatsAreSymmetricAcrossTheWorld) {
  // Every envelope sent is eventually received: after a quiesced run the
  // world-wide send and receive tallies must agree, overall, per tag, and
  // per destination.
  constexpr int kRanks = 5;
  const RunResult r = run_ranks(kRanks, [](Comm& comm) {
    // Each rank sends one tag-1 item to every peer and tag-2 to its
    // successor, then drains until it has everything addressed to it.
    for (Rank dst = 0; dst < kRanks; ++dst) {
      if (dst != comm.rank()) {
        comm.send_item<std::uint64_t>(dst, 1,
                                      static_cast<std::uint64_t>(dst));
      }
    }
    comm.send_item<std::uint64_t>((comm.rank() + 1) % kRanks, 2, 7);
    // Every rank is addressed by exactly kRanks envelopes: kRanks-1 tag-1
    // plus 1 tag-2. poll_wait appends, so `in` accumulates them all.
    std::vector<Envelope> in;
    while (in.size() < static_cast<std::size_t>(kRanks)) {
      (void)comm.poll_wait(in, 100ms);
    }
    comm.barrier();
  });

  CommStats world;
  for (const CommStats& s : r.rank_stats) world += s;
  EXPECT_EQ(world.envelopes_sent, world.envelopes_received);
  EXPECT_EQ(world.bytes_sent, world.bytes_received);
  EXPECT_EQ(world.envelopes_sent, static_cast<Count>(kRanks * kRanks));
  // Per-tag tallies agree too (tag 1: all-to-all, tag 2: the ring).
  EXPECT_EQ(world.sent_by_tag.at(1), world.received_by_tag.at(1));
  EXPECT_EQ(world.sent_by_tag.at(1),
            static_cast<Count>(kRanks * (kRanks - 1)));
  EXPECT_EQ(world.sent_by_tag.at(2), world.received_by_tag.at(2));
  EXPECT_EQ(world.sent_by_tag.at(2), static_cast<Count>(kRanks));
  // Per-destination counts: everything addressed to rank r was counted by
  // someone's envelopes_to[r], and the sum matches what r received.
  ASSERT_EQ(world.envelopes_to.size(), static_cast<std::size_t>(kRanks));
  for (int dst = 0; dst < kRanks; ++dst) {
    EXPECT_EQ(world.envelopes_to[static_cast<std::size_t>(dst)],
              r.rank_stats[static_cast<std::size_t>(dst)].envelopes_received)
        << "dst " << dst;
  }
  // A fault-free best-effort run must leave every robustness counter at
  // zero — retransmits/acks/dedup are transport artifacts and folding any
  // of them into the volumes above would skew the paper's load figures.
  EXPECT_EQ(world.retransmits, 0u);
  EXPECT_EQ(world.acks_sent, 0u);
  EXPECT_EQ(world.acks_received, 0u);
  EXPECT_EQ(world.duplicates_dropped, 0u);
  EXPECT_EQ(world.injected_drops, 0u);
  EXPECT_EQ(world.injected_dups, 0u);
}

TEST(Engine, RankExceptionPropagatesAsRootCause) {
  EXPECT_THROW(
      run_ranks(4,
                [](Comm& comm) {
                  if (comm.rank() == 2) throw std::runtime_error("rank 2 died");
                  comm.barrier();  // would deadlock without poisoning
                }),
      std::runtime_error);
}

TEST(Engine, SendToInvalidRankIsChecked) {
  EXPECT_THROW(run_ranks(1,
                         [](Comm& comm) {
                           comm.send_item<std::uint64_t>(5, 1, 1);
                         }),
               CheckError);
}

TEST(Engine, ManyRanksOversubscribed) {
  // The experiments run up to 160 logical ranks on one core; make sure the
  // runtime handles heavy oversubscription.
  const RunResult r = run_ranks(64, [](Comm& comm) {
    const auto sum = comm.allreduce_sum(1);
    EXPECT_EQ(sum, 64u);
  });
  EXPECT_EQ(r.rank_stats.size(), 64u);
}


TEST(Engine, RankFailureWakesDataPlaneWaiters) {
  // Regression: a rank death must unwind peers blocked on mailbox waits
  // (not just collectives), or the world deadlocks — found via the p = 1,
  // x > 1 unsatisfiable-configuration hang.
  bool observed_abort = false;
  try {
    run_ranks(3, [&](Comm& comm) {
      if (comm.rank() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("rank 0 died");
      }
      // Peers wait for data that will never come.
      std::vector<Envelope> in;
      for (;;) {
        comm.poll_wait(in, std::chrono::milliseconds(50));
      }
    });
  } catch (const std::runtime_error&) {
    observed_abort = true;  // root cause preferred over WorldAborted
  }
  EXPECT_TRUE(observed_abort);
}

// An injected crash is a rank failure like any other: the world aborts and,
// once every rank has unwound and joined, run_ranks rethrows the crash as
// the root cause. The runtime restarts nothing; core::generate relaunches.
TEST(Engine, InjectedCrashIsRethrownAsTheRootCauseAfterEveryRankJoins) {
  WorldOptions options;
  options.fault_plan = FaultPlan::parse("crash=1@1");
  std::atomic<int> exited{0};
  EXPECT_THROW(run_ranks(3, options,
                         [&](Comm& comm) {
                           struct Exit {
                             std::atomic<int>& n;
                             ~Exit() { ++n; }
                           } exit{exited};
                           if (comm.rank() == 1) {
                             comm.send_item<std::uint64_t>(0, 1, 1);  // dies
                           }
                           comm.barrier();  // poisoned by the crash
                         }),
               InjectedCrash);
  EXPECT_EQ(exited.load(), 3) << "each rank body ran once and unwound";
}

}  // namespace
}  // namespace pagen::mps
