// Service-level fault tolerance (docs/robustness.md §6): job retries with
// checkpoint resumption, store/checkpoint integrity quarantine, the
// overload ladder (shed, reject-with-hint, circuit breaker), and the
// cancel-vs-claim race. The load-bearing contract throughout: a job that
// completes after any amount of injected failure produces output
// bitwise-identical to a fault-free direct core::generate() call.
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/generate.h"
#include "svc/server.h"

namespace pagen::svc {
namespace {

graph::EdgeList normalized(graph::EdgeList edges) {
  graph::normalize(edges);
  return edges;
}

core::ParallelOptions direct_options(const JobSpec& spec) {
  core::ParallelOptions opt;
  opt.ranks = spec.ranks;
  opt.scheme = spec.scheme;
  opt.buffer_capacity = spec.buffer_capacity;
  opt.node_batch = spec.node_batch;
  return opt;
}

JobSpec gather_spec(NodeId n, std::uint64_t seed, int ranks) {
  JobSpec spec;
  spec.config.n = n;
  spec.config.x = 1;
  spec.config.seed = seed;
  spec.ranks = ranks;
  spec.sink = Sink::kGather;
  return spec;
}

JobId must_submit(Server& server, const JobSpec& spec) {
  const Server::Submitted sub = server.submit(spec);
  EXPECT_EQ(sub.reject, Reject::kNone) << to_string(sub.reject);
  return sub.id;
}

/// Fresh per-test scratch directory under the system temp dir.
std::string scratch_dir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("pagen_svc_fault_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A spec whose every attempt fails terminally: rank 0 is scripted to crash
/// at its 2nd send with no respawn budget, so the crash surfaces as an
/// attempt-level failure instead of being absorbed in-run. (The step must
/// be tiny: request batching means a rank makes only a handful of logical
/// sends per run.)
JobSpec always_failing_spec(std::uint64_t seed) {
  JobSpec spec = gather_spec(256, seed, 2);
  spec.fault_plan = mps::FaultPlan::parse("crash=0@2");
  spec.max_respawns = 0;
  return spec;
}

TEST(SvcFault, RetryResumesFromCheckpointAndMatchesGolden) {
  // x = 1 on four ranks, and x = 4 on three: duplicate retries cross ranks.
  const auto resumable = [](NodeId x, int ranks) {
    JobSpec s = gather_spec(600, 7, ranks);
    s.config.x = x;
    s.max_attempts = 3;
    return s;
  };
  for (const JobSpec& spec : {resumable(1, 4), resumable(4, 3)}) {
    SCOPED_TRACE("x=" + std::to_string(spec.config.x));
    const std::string root = scratch_dir("resume");
    ServerOptions options;
    options.workers = 1;
    options.checkpoint_root = root;
    options.checkpoint_every = 4;
    // Every job's first attempt dies on a sink failure midway through the
    // run — late enough that checkpoints exist to resume from.
    options.chaos = mps::FaultPlan::parse("seed=1,jobfail=1.0@1");
    Server server(options);

    const JobStatus status = server.wait(must_submit(server, spec));
    ASSERT_EQ(status.state, JobState::kCompleted) << status.error;
    EXPECT_EQ(status.attempts, 2u) << "attempt 1 injected to fail";
    EXPECT_TRUE(status.resumed)
        << "the retry must provably restore checkpointed progress";

    // The acceptance bar: a resumed job's output is bitwise-identical to a
    // fault-free direct run of the same spec.
    const auto direct = core::generate(spec.config, direct_options(spec));
    EXPECT_EQ(normalized(status.output->edges), normalized(direct.edges));
    EXPECT_EQ(status.output->targets, direct.targets);
    EXPECT_EQ(status.output->total_edges, direct.total_edges);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.resumed, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 0u) << "a recovered job is not a failed job";

    // The attempt ledger survives in the incident log even though the job
    // ultimately succeeded.
    bool saw_retry = false;
    for (const std::string& line : server.incidents()) {
      saw_retry = saw_retry || line.find("retrying after") != std::string::npos;
    }
    EXPECT_TRUE(saw_retry);

    server.shutdown(true);
    std::filesystem::remove_all(root);
  }
}

TEST(SvcFault, RetryWithoutCheckpointRootRegeneratesFromScratch) {
  ServerOptions options;
  options.workers = 1;
  options.chaos = mps::FaultPlan::parse("seed=2,jobfail=1.0@1");
  Server server(options);  // no checkpoint_root: retries cold-start

  JobSpec spec = gather_spec(400, 11, 2);
  spec.max_attempts = 2;
  const JobStatus status = server.wait(must_submit(server, spec));
  ASSERT_EQ(status.state, JobState::kCompleted) << status.error;
  EXPECT_EQ(status.attempts, 2u);
  EXPECT_FALSE(status.resumed) << "nothing checkpointed, nothing restored";

  const auto direct = core::generate(spec.config, direct_options(spec));
  EXPECT_EQ(normalized(status.output->edges), normalized(direct.edges));
}

TEST(SvcFault, ExhaustedAttemptsFailTerminally) {
  ServerOptions options;
  options.workers = 1;
  options.chaos = mps::FaultPlan::parse("seed=3,jobfail=1.0@2");
  Server server(options);

  // Two attempts allowed, the injection covers both: terminal failure.
  JobSpec spec = gather_spec(300, 13, 2);
  spec.max_attempts = 2;
  const JobStatus status = server.wait(must_submit(server, spec));
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_EQ(status.attempts, 2u) << "budget consumed, then terminal";
  EXPECT_NE(status.error.find("injected jobfail"), std::string::npos)
      << status.error;
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.failed, 1u);

  // The server survives, and one more attempt of budget outlasts the same
  // injection window.
  JobSpec good = gather_spec(200, 14, 2);
  good.max_attempts = 3;
  const JobStatus ok = server.wait(must_submit(server, good));
  ASSERT_EQ(ok.state, JobState::kCompleted) << ok.error;
  EXPECT_EQ(ok.attempts, 3u);
}

TEST(SvcFault, RankCrashBeyondRespawnBudgetIsAnAttemptFailure) {
  Server server({.workers = 1});
  JobSpec spec = always_failing_spec(17);
  spec.max_attempts = 2;
  const JobStatus status = server.wait(must_submit(server, spec));
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_EQ(status.attempts, 2u);
  EXPECT_NE(status.error.find("injected crash"), std::string::npos)
      << status.error;

  // The crash was contained to the job: the worker pool serves the next
  // spec, and the same workload *with* a respawn budget completes in-run.
  JobSpec recovered = always_failing_spec(17);
  recovered.max_respawns = 3;
  recovered.config.seed = 18;  // distinct spec: skip the cache
  const JobStatus ok = server.wait(must_submit(server, recovered));
  ASSERT_EQ(ok.state, JobState::kCompleted) << ok.error;
  EXPECT_EQ(ok.attempts, 1u) << "respawn absorbs the crash inside the run";
}

TEST(SvcFault, CorruptStoreIsQuarantinedAndRegenerated) {
  const std::string dir = scratch_dir("store");
  JobSpec spec = gather_spec(240, 5, 3);
  spec.sink = Sink::kCompressedStore;
  spec.store_dir = dir;

  {
    // Producer with store-corruption chaos: the job completes, then its
    // freshly sealed store is rotted behind its back.
    ServerOptions options;
    options.workers = 1;
    options.cache_entries = 0;  // force every repeat to the store probe
    options.chaos = mps::FaultPlan::parse("seed=4,storecorrupt=1.0");
    Server server(options);
    const JobStatus status = server.wait(must_submit(server, spec));
    ASSERT_EQ(status.state, JobState::kCompleted) << status.error;
  }

  // A clean consumer probes the rotted store: quarantined, regenerated
  // fresh, and the regenerated output still matches the fault-free golden.
  JobSpec consume = spec;
  consume.sink = Sink::kGather;
  ServerOptions options;
  options.workers = 1;
  options.cache_entries = 0;
  Server server(options);
  const Server::Submitted sub = server.submit(consume);
  ASSERT_EQ(sub.reject, Reject::kNone);
  EXPECT_FALSE(sub.from_cache) << "poison must never be served";
  const JobStatus status = server.wait(sub.id);
  ASSERT_EQ(status.state, JobState::kCompleted) << status.error;
  EXPECT_EQ(server.stats().quarantined_stores, 1u);

  const auto direct = core::generate(consume.config, direct_options(consume));
  EXPECT_EQ(normalized(status.output->edges), normalized(direct.edges));

  bool saw_quarantine = false;
  for (const std::string& line : server.incidents()) {
    saw_quarantine =
        saw_quarantine || line.find("quarantined") != std::string::npos;
  }
  EXPECT_TRUE(saw_quarantine);

  // The gather regeneration did not re-seal the store (only
  // kCompressedStore jobs write it); a store-sink submit rebuilds and
  // re-seals it, after which the probe serves from disk again.
  const JobStatus resealed = server.wait(must_submit(server, spec));
  ASSERT_EQ(resealed.state, JobState::kCompleted) << resealed.error;
  EXPECT_TRUE(server.submit(spec).from_cache);
  server.shutdown(true);
  std::filesystem::remove_all(dir);
}

TEST(SvcFault, CorruptCheckpointIsQuarantinedAndTheRestResume) {
  const std::string root = scratch_dir("ckptrot");
  ServerOptions options;
  options.workers = 1;
  options.checkpoint_root = root;
  options.checkpoint_every = 4;
  // Attempt 1 fails, then one rank's checkpoint is bit-flipped before the
  // retry: the pre-resume integrity pass must quarantine exactly that file
  // (that rank cold-starts) while the other ranks still resume. Four ranks
  // so that survivors with checkpoints remain after the flip.
  options.chaos = mps::FaultPlan::parse("seed=5,jobfail=1.0@1,ckptcorrupt=1.0");
  Server server(options);

  JobSpec spec = gather_spec(600, 23, 4);
  spec.max_attempts = 3;
  const JobStatus status = server.wait(must_submit(server, spec));
  ASSERT_EQ(status.state, JobState::kCompleted) << status.error;
  EXPECT_EQ(status.attempts, 2u);
  EXPECT_TRUE(status.resumed) << "the unrotted rank still restored progress";
  EXPECT_GE(server.stats().quarantined_checkpoints, 1u);

  const auto direct = core::generate(spec.config, direct_options(spec));
  EXPECT_EQ(normalized(status.output->edges), normalized(direct.edges));
  EXPECT_EQ(status.output->targets, direct.targets);
  server.shutdown(true);
  std::filesystem::remove_all(root);
}

TEST(SvcFault, OverloadLadderShedsStrictlyLowerPriorityFirst) {
  Server server({.workers = 1, .queue_capacity = 2, .start_paused = true});
  const JobId low = must_submit(server, [&] {
    JobSpec s = gather_spec(128, 30, 2);
    s.priority = 0;
    return s;
  }());
  const JobId mid = must_submit(server, [&] {
    JobSpec s = gather_spec(128, 31, 2);
    s.priority = 1;
    return s;
  }());

  // A higher-priority arrival at capacity sheds the least important job.
  JobSpec high = gather_spec(128, 32, 2);
  high.priority = 2;
  const JobId kept = must_submit(server, high);
  EXPECT_EQ(server.poll(low).state, JobState::kShed);
  EXPECT_EQ(server.poll(mid).state, JobState::kQueued);

  // An equal-priority arrival does not shed equals: reject with a
  // retry-after hint instead.
  JobSpec equal = gather_spec(128, 33, 2);
  equal.priority = 1;
  const Server::Submitted rejected = server.submit(equal);
  EXPECT_EQ(rejected.reject, Reject::kQueueFull);
  EXPECT_GT(rejected.retry_after, 0u) << "overload rejects carry a hint";

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  bool saw_shed = false;
  for (const std::string& line : server.incidents()) {
    saw_shed = saw_shed ||
               line.find("shed for higher-priority arrival") !=
                   std::string::npos;
  }
  EXPECT_TRUE(saw_shed);

  // The survivors drain normally; wait() on the shed job returns kShed.
  server.resume();
  EXPECT_EQ(server.wait(low).state, JobState::kShed);
  EXPECT_EQ(server.wait(mid).state, JobState::kCompleted);
  EXPECT_EQ(server.wait(kept).state, JobState::kCompleted);
}

TEST(SvcFault, CircuitBreakerOpensAfterConsecutiveFailuresThenHalfOpens) {
  ServerOptions options;
  options.workers = 1;
  options.breaker_threshold = 2;
  options.breaker_cooldown = 2;
  Server server(options);

  const JobSpec bad = [] {
    JobSpec s = always_failing_spec(40);
    s.max_attempts = 1;
    return s;
  }();
  EXPECT_EQ(server.wait(must_submit(server, bad)).state, JobState::kFailed);
  EXPECT_EQ(server.wait(must_submit(server, bad)).state, JobState::kFailed);

  // Two consecutive failures tripped the breaker: fast-fail, no worker burn.
  const Server::Submitted blocked = server.submit(bad);
  EXPECT_EQ(blocked.reject, Reject::kCircuitOpen);
  EXPECT_EQ(blocked.retry_after, options.breaker_cooldown);
  EXPECT_EQ(server.stats().circuit_open_rejects, 1u);

  // Other specs are unaffected; their accepts advance the admission tick
  // through the cooldown window.
  EXPECT_EQ(server.wait(must_submit(server, gather_spec(128, 41, 2))).state,
            JobState::kCompleted);
  EXPECT_EQ(server.wait(must_submit(server, gather_spec(128, 42, 2))).state,
            JobState::kCompleted);

  // Past the cooldown the breaker half-opens: one probationary attempt runs
  // (and, still failing, re-opens the circuit immediately).
  EXPECT_EQ(server.wait(must_submit(server, bad)).state, JobState::kFailed);
  EXPECT_EQ(server.submit(bad).reject, Reject::kCircuitOpen)
      << "one failed probe re-opens a half-open breaker";
}

TEST(SvcFault, CancelStormRacingWorkerClaimsStaysConsistent) {
  // The queue.remove(id)-vs-worker-pop race, run as a storm: cancels land
  // while workers claim, dispatch, and finish the same ids. Every job must
  // end terminal in {cancelled, completed} with the tallies adding up
  // (TSan-clean under the sanitizer CI preset).
  Server server({.workers = 4, .queue_capacity = 64});
  constexpr int kJobs = 24;
  std::vector<JobId> ids;
  ids.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    ids.push_back(must_submit(server, gather_spec(96, 100 + j, 2)));
  }
  std::thread canceller([&] {
    for (std::size_t j = 0; j < ids.size(); j += 2) {
      (void)server.cancel(ids[j]);  // false when it already finished: fine
    }
  });
  canceller.join();

  Count cancelled = 0;
  Count completed = 0;
  for (const JobId id : ids) {
    const JobStatus status = server.wait(id);
    ASSERT_TRUE(terminal(status.state)) << to_string(status.state);
    if (status.state == JobState::kCancelled) ++cancelled;
    if (status.state == JobState::kCompleted) ++completed;
    if (status.state == JobState::kCompleted) {
      ASSERT_NE(status.output, nullptr);
    }
  }
  EXPECT_EQ(cancelled + completed, static_cast<Count>(kJobs));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.completed, completed);
}

}  // namespace
}  // namespace pagen::svc
