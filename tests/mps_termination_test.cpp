#include "mps/termination.h"

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mps/engine.h"
#include "util/error.h"

namespace pagen::mps {
namespace {

using namespace std::chrono_literals;

constexpr int kDone = 100;
constexpr int kStop = 101;

TEST(Termination, SingleRankStopsImmediately) {
  run_ranks(1, [](Comm& comm) {
    DoneDetector done(comm, kDone, kStop);
    EXPECT_FALSE(done.stopped());
    done.notify_local_done();
    EXPECT_TRUE(done.stopped());
  });
}

TEST(Termination, AllRanksConverge) {
  run_ranks(8, [](Comm& comm) {
    DoneDetector done(comm, kDone, kStop);
    done.notify_local_done();
    std::vector<Envelope> in;
    while (!done.stopped()) {
      in.clear();
      comm.poll_wait(in, 50ms);
      for (const Envelope& env : in) EXPECT_TRUE(done.handle(env));
    }
  });
}

TEST(Termination, StaggeredCompletion) {
  run_ranks(6, [](Comm& comm) {
    DoneDetector done(comm, kDone, kStop);
    // Ranks finish at very different times.
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * comm.rank()));
    done.notify_local_done();
    std::vector<Envelope> in;
    while (!done.stopped()) {
      in.clear();
      comm.poll_wait(in, 50ms);
      for (const Envelope& env : in) done.handle(env);
    }
  });
}

TEST(Termination, NonProtocolEnvelopeNotConsumed) {
  run_ranks(2, [](Comm& comm) {
    DoneDetector done(comm, kDone, kStop);
    if (comm.rank() == 0) {
      comm.send_item<std::uint64_t>(1, 55, 9);
    } else {
      std::vector<Envelope> in;
      while (!comm.poll_wait(in, 100ms)) {
      }
      EXPECT_FALSE(done.handle(in[0]));
    }
    comm.barrier();
  });
}

TEST(Termination, DoubleNotifyIsChecked) {
  run_ranks(1, [](Comm& comm) {
    DoneDetector done(comm, kDone, kStop);
    done.notify_local_done();
    EXPECT_THROW(done.notify_local_done(), CheckError);
  });
}

TEST(Termination, SecondDoneFromOneRankIsChecked) {
  // Counting rank 1 twice would stop the world before rank 2 is done, so
  // the root refuses the second notice and the world aborts with it.
  const auto body = [](Comm& comm) {
    DoneDetector done(comm, kDone, kStop);
    if (comm.rank() == 1) {
      done.notify_local_done();
      comm.send_item<char>(0, kDone, 0);
    } else if (comm.rank() == 0) {
      std::vector<Envelope> in;
      while (in.size() < 2) (void)comm.poll_wait(in, 50ms);
      for (const Envelope& env : in) done.handle(env);
    }
    comm.barrier();
  };
  EXPECT_THROW(run_ranks(3, body), CheckError);
}

TEST(Termination, WorkThenTerminate) {
  // Ranks exchange some data traffic, then terminate; no envelope may be
  // lost or misattributed to the protocol.
  run_ranks(4, [](Comm& comm) {
    const int kData = 7;
    // Everyone sends one data message to the next rank.
    comm.send_item<std::uint64_t>((comm.rank() + 1) % 4, kData, 1);
    DoneDetector done(comm, kDone, kStop);
    bool got_data = false;
    bool notified = false;
    std::vector<Envelope> in;
    while (!done.stopped()) {
      in.clear();
      comm.poll_wait(in, 50ms);
      for (const Envelope& env : in) {
        if (done.handle(env)) continue;
        EXPECT_EQ(env.tag, kData);
        got_data = true;
      }
      if (got_data && !notified) {
        done.notify_local_done();
        notified = true;
      }
    }
    EXPECT_TRUE(got_data);
  });
}

}  // namespace
}  // namespace pagen::mps
