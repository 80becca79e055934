#include "mps/collectives.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mps/engine.h"

namespace pagen::mps {
namespace {

TEST(Collectives, SingleRankExchange) {
  CollectiveContext ctx(1);
  std::vector<std::byte> in;
  pack_one<std::uint64_t>(in, 5);
  const auto all = ctx.exchange(0, in);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(unpack<std::uint64_t>(all[0])[0], 5u);
}

TEST(Collectives, ExchangeDeliversAllToAll) {
  constexpr int kRanks = 8;
  CollectiveContext ctx(kRanks);
  std::vector<std::thread> threads;
  std::vector<int> failures(kRanks, 0);
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      std::vector<std::byte> in;
      pack_one<std::uint64_t>(in, static_cast<std::uint64_t>(r * 10));
      const auto all = ctx.exchange(r, in);
      for (int j = 0; j < kRanks; ++j) {
        if (unpack<std::uint64_t>(all[static_cast<std::size_t>(j)])[0] !=
            static_cast<std::uint64_t>(j * 10)) {
          failures[r] = 1;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(std::accumulate(failures.begin(), failures.end(), 0), 0);
}

TEST(Collectives, RepeatedRoundsDoNotCrossContaminate) {
  constexpr int kRanks = 4;
  constexpr int kRounds = 200;
  CollectiveContext ctx(kRanks);
  std::vector<std::thread> threads;
  std::vector<int> failures(kRanks, 0);
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        std::vector<std::byte> in;
        pack_one<std::uint64_t>(in, round * 100 + static_cast<std::uint64_t>(r));
        const auto all = ctx.exchange(r, in);
        for (int j = 0; j < kRanks; ++j) {
          if (unpack<std::uint64_t>(all[static_cast<std::size_t>(j)])[0] !=
              round * 100 + static_cast<std::uint64_t>(j)) {
            failures[r] = 1;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(std::accumulate(failures.begin(), failures.end(), 0), 0);
}

// Each rank copies its round's result out after leaving the rendezvous
// lock. Rounds of 0 B to 256 KB blobs, in each of which one rank (another
// one every round) reads its result late — it sleeps after its exchange
// returns while the others deposit the next round and wait for it — must
// still hand every rank exactly its own round's blobs.
TEST(Collectives, LateReaderGetsItsOwnRoundAcrossBlobSizes) {
  constexpr int kRanks = 4;
  constexpr int kRounds = 24;
  constexpr std::size_t kSizes[] = {0, 1, 7, 4096, 65536, 262144};
  const auto blob = [&](int round, int rank) {
    std::vector<std::byte> b(
        kSizes[static_cast<std::size_t>(round + rank) % std::size(kSizes)]);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<std::byte>(static_cast<std::size_t>(round) * 31 +
                                    static_cast<std::size_t>(rank) * 7 + i);
    }
    return b;
  };
  CollectiveContext ctx(kRanks);
  std::vector<std::thread> threads;
  std::vector<int> failures(kRanks, 0);
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      for (int round = 0; round < kRounds; ++round) {
        const auto all = ctx.exchange(r, blob(round, r));
        if (round % kRanks == r) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        for (int j = 0; j < kRanks; ++j) {
          if (all[static_cast<std::size_t>(j)] != blob(round, j)) {
            ++failures[static_cast<std::size_t>(r)];
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(std::accumulate(failures.begin(), failures.end(), 0), 0);
}

TEST(Collectives, PoisonUnblocksWaiters) {
  CollectiveContext ctx(2);
  std::thread waiter([&] {
    EXPECT_THROW((void)ctx.exchange(0, {}), WorldAborted);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ctx.poison();
  waiter.join();
  // Future calls also refuse.
  EXPECT_THROW((void)ctx.exchange(1, {}), WorldAborted);
}

TEST(CommCollectives, AllreduceSumAndMax) {
  run_ranks(6, [](Comm& comm) {
    const auto r = static_cast<std::uint64_t>(comm.rank());
    EXPECT_EQ(comm.allreduce_sum(r), 15u);  // 0+..+5
    EXPECT_EQ(comm.allreduce_max(r), 5u);
  });
}

TEST(CommCollectives, AllreduceSumDouble) {
  run_ranks(4, [](Comm& comm) {
    const double v = 0.5 * (comm.rank() + 1);
    EXPECT_DOUBLE_EQ(comm.allreduce_sum_double(v), 0.5 + 1.0 + 1.5 + 2.0);
  });
}

TEST(CommCollectives, AllgatherOrderedByRank) {
  run_ranks(5, [](Comm& comm) {
    const auto all = comm.allgather(static_cast<std::uint64_t>(comm.rank()) * 7);
    ASSERT_EQ(all.size(), 5u);
    for (std::size_t j = 0; j < 5; ++j) EXPECT_EQ(all[j], j * 7);
  });
}

TEST(CommCollectives, BroadcastFromNonzeroRoot) {
  run_ranks(4, [](Comm& comm) {
    const std::uint64_t mine = comm.rank() == 2 ? 777u : 0u;
    EXPECT_EQ(comm.broadcast(mine, 2), 777u);
  });
}

TEST(CommCollectives, BarrierOrdersPhases) {
  // Without the barrier the late ranks could observe phase==0.
  std::atomic<int> phase{0};
  run_ranks(4, [&](Comm& comm) {
    if (comm.rank() == 0) phase.store(1);
    comm.barrier();
    EXPECT_EQ(phase.load(), 1);
  });
}

TEST(CommCollectives, StatsCountCollectives) {
  run_ranks(3, [](Comm& comm) {
    comm.barrier();
    (void)comm.allreduce_sum(1);
    EXPECT_EQ(comm.stats().collectives, 2u);
    // The barrier deposits nothing, the sum one u64.
    EXPECT_EQ(comm.stats().collective_bytes, 8u);
  });
}

}  // namespace
}  // namespace pagen::mps
