// Schedule-exploration model checker (mps/modelcheck.h + core/mc_runner.h).
//
// The load-bearing guarantees pinned here:
//  * replay determinism — a recorded schedule re-runs step for step: a
//    passing schedule to bitwise-identical edges, a failing schedule to
//    the identical failure;
//  * the deliberately re-introduced RRP flush-rule bug (the PR 2
//    regression: ParallelOptions::flush_resolved_after_batch = false) is
//    found by exhaustive exploration and its schedule replays to the same
//    deadlock;
//  * small-config exhaustive sweeps complete (tree exhausted) with zero
//    violations, and every schedule — exhaustive or random, at x = 1 and
//    at x > 1 — reproduces the one schedule-free reference output;
//  * the "pagen.mpsmc.v1" trace format round-trips, and a dumped trace's
//    meta block gives back the config that ran, p bit for bit.
#include "mps/modelcheck.h"

#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/mc_runner.h"
#include "partition/partition.h"

namespace pagen {
namespace {

namespace mc = mps::mc;
using core::mc::PropertyRunner;

PropertyRunner::Options small_config(int ranks, NodeId n) {
  PropertyRunner::Options o;
  o.pa.n = n;
  o.pa.x = 1;
  o.pa.p = 0.5;
  o.pa.seed = 7;
  o.ranks = ranks;
  o.scheme = partition::Scheme::kRrp;
  o.buffer_capacity = 4;
  o.node_batch = 8;
  return o;
}

TEST(ModelCheck, ExhaustiveSmallConfigCompletesClean) {
  for (const int ranks : {2, 3}) {
    PropertyRunner runner(small_config(ranks, 16));
    mc::ExploreOptions eo;
    eo.nranks = ranks;
    eo.max_schedules = 200'000;
    const mc::ExploreReport report =
        mc::explore_exhaustive(eo, runner.runner());
    EXPECT_FALSE(report.failed) << report.failure;
    EXPECT_TRUE(report.complete) << "ranks " << ranks;
    EXPECT_GT(report.schedules_explored, 0u);
    EXPECT_GT(report.schedules_pruned, 0u)
        << "sleep sets pruned nothing at ranks " << ranks;
    // Theorem 3.2 made machine-checked: the runner failed no schedule, so
    // every explored schedule produced the schedule-free reference output.
  }
}

TEST(ModelCheck, RandomSchedulesX1OutputIsScheduleIndependent) {
  PropertyRunner runner(small_config(3, 48));
  mc::ExploreOptions eo;
  eo.nranks = 3;
  const mc::ExploreReport report =
      mc::explore_random(eo, /*base_seed=*/11, /*schedules=*/64,
                         runner.runner());
  EXPECT_FALSE(report.failed) << report.failure;
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.schedules_explored, 64u);
}

TEST(ModelCheck, PassingScheduleReplaysToBitwiseIdenticalEdges) {
  const PropertyRunner::Options options = small_config(2, 32);

  // Record one passing random schedule.
  PropertyRunner record_runner(options);
  mc::RandomStrategy random(99);
  mc::Scheduler sched(options.ranks, &random);
  const mc::RunOutcome out = record_runner.runner()(sched);
  ASSERT_FALSE(out.failed) << out.failure;
  ASSERT_FALSE(sched.deadlocked());
  ASSERT_EQ(sched.undelivered(), 0u);

  mc::ScheduleTrace trace;
  trace.actions = sched.trace();
  ASSERT_FALSE(trace.actions.empty());

  // Replay it through a fresh runner: step-for-step match, and a pass is
  // a hash match against the same one-rank reference the recording passed
  // (bitwise-identical output).
  PropertyRunner replay_runner(options);
  mc::ExploreOptions eo;
  eo.nranks = options.ranks;
  const mc::ReplayReport replay =
      mc::replay_schedule(eo, trace, replay_runner.runner());
  EXPECT_TRUE(replay.matched);
  EXPECT_FALSE(replay.outcome.failed) << replay.outcome.failure;
}

TEST(ModelCheck, FlushRuleOffDeadlockIsFoundAndReplaysIdentically) {
  // The PR 2 regression, re-introduced on purpose: without the RRP flush
  // rule a resolved value can sit in a send buffer forever while its
  // requester blocks. Exploration must find a deadlocking schedule.
  PropertyRunner::Options options = small_config(2, 32);
  options.flush_resolved_after_batch = false;

  PropertyRunner runner(options);
  mc::ExploreOptions eo;
  eo.nranks = options.ranks;
  eo.max_schedules = 10'000;
  const mc::ExploreReport report = mc::explore_exhaustive(eo, runner.runner());
  ASSERT_TRUE(report.failed);
  EXPECT_NE(report.failure.find("deadlock"), std::string::npos)
      << report.failure;
  ASSERT_FALSE(report.failing.actions.empty());

  // The dumped schedule replays to the identical assertion failure.
  PropertyRunner replay_runner(options);
  const mc::ReplayReport replay =
      mc::replay_schedule(eo, report.failing, replay_runner.runner());
  EXPECT_TRUE(replay.matched);
  EXPECT_TRUE(replay.outcome.failed);
  EXPECT_TRUE(replay.deadlocked);
  EXPECT_EQ(replay.outcome.failure, report.failure);

  // And the fix (the flush rule, on by default) removes every deadlock
  // from the very same exploration.
  options.flush_resolved_after_batch = true;
  PropertyRunner fixed_runner(options);
  const mc::ExploreReport fixed = mc::explore_exhaustive(eo, fixed_runner.runner());
  EXPECT_FALSE(fixed.failed) << fixed.failure;
}

TEST(ModelCheck, GeneralModelInvariantsHoldAcrossSchedules) {
  PropertyRunner::Options options = small_config(2, 20);
  options.pa.x = 3;
  PropertyRunner runner(options);
  mc::ExploreOptions eo;
  eo.nranks = options.ranks;
  eo.max_schedules = 500;
  const mc::ExploreReport report = mc::explore_exhaustive(eo, runner.runner());
  EXPECT_FALSE(report.failed) << report.failure;
  EXPECT_GT(report.schedules_explored, 0u);
}

// Random schedules at x = 2 on three ranks (mpsmc --schedules=200 --n=64
// --x=2 --ranks=3 --schedule-seed=5): duplicate retries cross ranks, and
// every schedule must still produce the reference output. A rank that
// checked a value against whichever of the row's slots had resolved so far
// gave two different outputs over these schedules.
TEST(ModelCheck, RandomSchedulesX2OutputIsScheduleIndependent) {
  PropertyRunner::Options options;
  options.pa = {.n = 64, .x = 2, .p = 0.5, .seed = 1};
  options.ranks = 3;
  PropertyRunner runner(options);
  mc::ExploreOptions eo;
  eo.nranks = options.ranks;
  const mc::ExploreReport report =
      mc::explore_random(eo, /*base_seed=*/5, /*schedules=*/200,
                         runner.runner());
  EXPECT_FALSE(report.failed) << report.failure;
  EXPECT_EQ(report.schedules_explored, 200u);
}

// Chain depths are schedule-independent at every x: the oracle is
// baseline::ChainTrace at x = 1 and the traced one-rank reference at x = 2.
TEST(ModelCheck, CausalChainDepthsMatchOracleOnEverySchedule) {
  for (const NodeId x : {1U, 2U}) {
    SCOPED_TRACE("x=" + std::to_string(x));
    PropertyRunner::Options options = small_config(2, 32);
    options.pa.x = x;
    options.causal_check = true;
    PropertyRunner runner(options);
    EXPECT_GT(runner.chain_oracle().count(), 0u)
        << "an empty oracle checks nothing";
    mc::ExploreOptions eo;
    eo.nranks = options.ranks;
    const mc::ExploreReport report =
        mc::explore_random(eo, /*base_seed=*/3, /*schedules=*/16,
                           runner.runner());
    EXPECT_FALSE(report.failed) << report.failure;
    EXPECT_EQ(report.schedules_explored, 16u);
  }
}

TEST(ModelCheck, TraceJsonRoundTrips) {
  mc::ScheduleTrace trace;
  trace.meta["n"] = "32";
  trace.meta["scheme"] = "RRP";
  trace.meta["note"] = "quotes \" backslash \\ newline \n tab \t";
  trace.failure = "deadlock: ranks: 0=blocked 1=blocked";
  trace.actions.push_back(
      mc::Action{mc::Action::Kind::kStep, 1, -1, 0});
  trace.actions.push_back(
      mc::Action{mc::Action::Kind::kDeliver, 0, 1, 3});

  const std::string json = mc::trace_to_json(trace);
  mc::ScheduleTrace parsed;
  std::string error;
  ASSERT_TRUE(mc::trace_from_json(json, parsed, error)) << error;
  EXPECT_EQ(parsed.meta, trace.meta);
  EXPECT_EQ(parsed.failure, trace.failure);
  ASSERT_EQ(parsed.actions.size(), trace.actions.size());
  EXPECT_EQ(parsed.actions, trace.actions);

  // Unknown keys tolerated; wrong format and torn documents rejected.
  mc::ScheduleTrace dummy;
  EXPECT_TRUE(mc::trace_from_json(
      R"({"format": "pagen.mpsmc.v1", "future": [1, [2]], "actions": []})",
      dummy, error));
  EXPECT_FALSE(mc::trace_from_json(R"({"format": "pagen.mpsmc.v2"})", dummy,
                                   error));
  EXPECT_FALSE(mc::trace_from_json(R"({"actions": []})", dummy, error));
  EXPECT_FALSE(mc::trace_from_json(json.substr(0, json.size() / 2), dummy,
                                   error));
}

TEST(ModelCheck, TraceMetaReplaysItsOwnConfigExactly) {
  // fill_meta -> JSON -> options_from_meta must give back the very config
  // that ran, p bit for bit (a six-decimal p would replay 1e-7 as 0), and
  // the causal check with it.
  struct Input {
    double p;
    bool causal_check;
  };
  for (const auto [p, causal_check] :
       {Input{1.0 / 3.0, false}, Input{1e-7, false}, Input{0.1, false},
        Input{0.5, true}}) {
    PropertyRunner::Options options = small_config(2, 32);
    options.pa.p = p;
    options.causal_check = causal_check;
    mc::ScheduleTrace trace;
    PropertyRunner(options).fill_meta(trace);
    mc::ScheduleTrace parsed;
    std::string error;
    ASSERT_TRUE(mc::trace_from_json(mc::trace_to_json(trace), parsed, error))
        << error;
    PropertyRunner::Options back;
    ASSERT_TRUE(PropertyRunner::options_from_meta(parsed, back, error))
        << error;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.pa.p),
              std::bit_cast<std::uint64_t>(p))
        << "p = " << p << " replayed as " << back.pa.p;
    EXPECT_EQ(back.pa.n, options.pa.n);
    EXPECT_EQ(back.ranks, options.ranks);
    EXPECT_EQ(back.causal_check, causal_check) << "p = " << p;
  }

  // A value that does not parse whole is an error naming its key.
  for (const char* bad : {"32x", "abc"}) {
    mc::ScheduleTrace trace;
    PropertyRunner(small_config(2, 32)).fill_meta(trace);
    trace.meta["n"] = bad;
    PropertyRunner::Options back;
    std::string error;
    EXPECT_FALSE(PropertyRunner::options_from_meta(trace, back, error)) << bad;
    EXPECT_NE(error.find("\"n\""), std::string::npos) << error;
  }
}

TEST(ModelCheck, ReplayDivergenceIsDetected) {
  // A schedule recorded against one config replayed against another must
  // report a mismatch, not silently explore something else.
  const PropertyRunner::Options options = small_config(2, 32);
  PropertyRunner runner(options);
  mc::RandomStrategy random(5);
  mc::Scheduler sched(options.ranks, &random);
  ASSERT_FALSE(runner.runner()(sched).failed);

  mc::ScheduleTrace trace;
  trace.actions = sched.trace();
  ASSERT_GT(trace.actions.size(), 2u);
  // Corrupt the tail: deliver from a rank that never sends on tag 999.
  trace.actions.back() = mc::Action{mc::Action::Kind::kDeliver, 0, 1, 999};

  PropertyRunner replay_runner(options);
  mc::ExploreOptions eo;
  eo.nranks = options.ranks;
  const mc::ReplayReport replay =
      mc::replay_schedule(eo, trace, replay_runner.runner());
  EXPECT_FALSE(replay.matched);
}

}  // namespace
}  // namespace pagen
