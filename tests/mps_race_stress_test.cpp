// Concurrency stress for the runtime's shared structures, sized to give
// TSan real interleavings (the sanitizer CI jobs run this suite; see
// docs/static-analysis.md). Race verdicts come from the sanitizer — the
// assertions here only pin functional outcomes (counts, FIFO order) so the
// test also earns its keep in uninstrumented runs.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mps/engine.h"
#include "mps/mailbox.h"
#include "mps/message.h"
#include "obs/trace.h"

namespace pagen::mps {
namespace {

using namespace std::chrono_literals;

/// Many producers hammer one mailbox while the owner alternates blocking
/// and non-blocking drains and a bystander polls the (racy-by-design) size
/// gauge. Verifies nothing is lost and delivery is FIFO per producer —
/// the non-overtaking property at the queue level.
TEST(MailboxRaceStress, ManyProducersOneDrainingOwner) {
  constexpr int kProducers = 8;
  constexpr std::uint64_t kPerProducer = 2000;

  Mailbox box;
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        std::vector<std::byte> payload;
        pack_one(payload, i);
        box.push(Envelope{p, /*tag=*/1, std::move(payload), 0, {}});
        if (i % 512 == 0) std::this_thread::yield();
      }
    });
  }

  std::thread gauge([&box, &done] {
    // Concurrent size() readers must be safe (mutexed) even though the
    // value itself is immediately stale.
    while (!done.load()) {
      (void)box.size();
      std::this_thread::yield();
    }
  });

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t received = 0;
  std::vector<Envelope> batch;
  bool use_blocking = false;
  while (received < kProducers * kPerProducer) {
    batch.clear();
    const bool got = use_blocking ? box.wait_drain(batch, 10ms)
                                  : box.try_drain(batch);
    use_blocking = !use_blocking;
    if (!got) continue;
    for (const Envelope& env : batch) {
      const auto items = unpack<std::uint64_t>(env.payload);
      ASSERT_EQ(items.size(), 1u);
      EXPECT_EQ(items[0], next_seq[static_cast<std::size_t>(env.src)])
          << "per-producer FIFO order violated for producer " << env.src;
      ++next_seq[static_cast<std::size_t>(env.src)];
      ++received;
    }
  }
  done.store(true);

  for (auto& t : producers) t.join();
  gauge.join();
  EXPECT_EQ(received, kProducers * kPerProducer);
  EXPECT_EQ(box.size(), 0u);
}

/// Every thread records into its own tracer (the single-writer discipline)
/// while a monitor thread concurrently reads the cross-thread-safe counters
/// — the one part of the tracer that is atomic (see the concurrency audit
/// in obs/trace.h). TSan validates the discipline; the assertions validate
/// the drop accounting.
TEST(TracerRaceStress, ConcurrentRecordingWithLiveMonitor) {
  constexpr int kThreads = 6;
  constexpr int kEventsPerThread = 4000;
  constexpr std::size_t kRingCapacity = 256;

  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  tracers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    tracers.push_back(std::make_unique<obs::Tracer>(t, kRingCapacity));
  }

  constexpr auto kExpectedTotal =
      static_cast<Count>(kThreads) * kEventsPerThread;
  std::atomic<bool> done{false};
  std::thread monitor([&] {
    // At least one read races the writers (do-while: a single-core scheduler
    // may not run this thread until the writers finish). Live reads may be
    // stale but never exceed the true total and never go backwards.
    Count last = 0;
    do {
      Count sum = 0;
      for (const auto& t : tracers) sum += t->total_recorded();
      EXPECT_GE(sum, last) << "total_recorded went backwards";
      EXPECT_LE(sum, kExpectedTotal);
      last = sum;
      std::this_thread::yield();
    } while (!done.load());
    // done was set after the writers joined, so this read is exact: the
    // join + done-flag chain gives happens-before even for relaxed counters.
    Count final_sum = 0;
    for (const auto& t : tracers) final_sum += t->total_recorded();
    EXPECT_EQ(final_sum, kExpectedTotal);
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&tracers, t] {
      obs::Tracer& tr = *tracers[static_cast<std::size_t>(t)];
      for (int i = 0; i < kEventsPerThread; ++i) {
        switch (i % 3) {
          case 0: {
            const auto sp = tr.span("work");
            break;
          }
          case 1:
            tr.instant("tick");
            break;
          default:
            tr.counter("value", i);
            break;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true);
  monitor.join();

  for (const auto& t : tracers) {
    EXPECT_EQ(t->total_recorded(), static_cast<Count>(kEventsPerThread));
    EXPECT_EQ(t->dropped(),
              static_cast<Count>(kEventsPerThread) - kRingCapacity);
    EXPECT_EQ(t->size(), kRingCapacity);
  }
}

/// Full-world churn: every rank mixes point-to-point bursts, drains, and
/// collectives in a tight loop. This is the engine-level counterpart of the
/// mailbox test — mailbox mutexes, the collective rendezvous, and (in debug
/// builds) the invariant checker's atomics all interleave under TSan.
TEST(EngineRaceStress, MixedTrafficAndCollectives) {
  constexpr int kRanks = 8;
  constexpr int kRounds = 40;

  const RunResult r = run_ranks(kRanks, [](Comm& comm) {
    std::vector<Envelope> inbox;
    std::uint64_t received = 0;
    for (int round = 0; round < kRounds; ++round) {
      const auto dst = static_cast<Rank>((comm.rank() + round) % kRanks);
      comm.send_item<std::uint64_t>(dst, /*tag=*/7,
                                    static_cast<std::uint64_t>(round));
      if (round % 4 == 0) {
        inbox.clear();
        comm.poll(inbox);
        for (const Envelope& env : inbox) {
          received += unpack<std::uint64_t>(env.payload).size();
        }
      }
      // Sends push synchronously, so the barrier orders every rank's
      // round-`round` traffic before anyone moves on; after the last one
      // the final drain below sees everything.
      comm.barrier();
    }
    inbox.clear();
    comm.poll(inbox);
    for (const Envelope& env : inbox) {
      received += unpack<std::uint64_t>(env.payload).size();
    }
    const auto total = comm.allreduce_sum(received);
    EXPECT_EQ(total, static_cast<std::uint64_t>(kRanks) * kRounds);
  });

  CommStats world;
  for (const CommStats& s : r.rank_stats) world += s;
  EXPECT_EQ(world.envelopes_sent, world.envelopes_received);
}

}  // namespace
}  // namespace pagen::mps
