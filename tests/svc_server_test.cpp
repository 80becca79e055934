// Server facade tests, centered on the svc determinism contract
// (docs/serving.md §5): a job executed through the Server produces
// bitwise-identical output to a direct core::generate() call with the same
// spec — including when the job is served from the ResultCache, from an
// existing compressed store, and after a cancel/resubmit.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/generate.h"
#include "json_lint.h"
#include "svc/server.h"
#include "util/error.h"

namespace pagen::svc {
namespace {

/// Canonical form for cross-run comparison: the edge *set* of a spec is
/// deterministic, but per-rank emission order depends on message arrival
/// order, so identity checks compare normalized ((min,max), sorted) lists —
/// the same canonicalization the genrt golden suite hashes.
graph::EdgeList normalized(graph::EdgeList edges) {
  graph::normalize(edges);
  return edges;
}

/// The ParallelOptions a Server worker derives from `spec` — the direct
/// half of every identity check below.
core::ParallelOptions direct_options(const JobSpec& spec) {
  core::ParallelOptions opt;
  opt.ranks = spec.ranks;
  opt.scheme = spec.scheme;
  opt.buffer_capacity = spec.buffer_capacity;
  opt.node_batch = spec.node_batch;
  return opt;
}

JobSpec gather_spec(NodeId n, NodeId x, std::uint64_t seed, int ranks) {
  JobSpec spec;
  spec.config.n = n;
  spec.config.x = x;
  spec.config.seed = seed;
  spec.ranks = ranks;
  spec.sink = Sink::kGather;
  return spec;
}

/// Submit-or-die helper for specs the test knows are admissible.
JobId must_submit(Server& server, const JobSpec& spec) {
  const Server::Submitted sub = server.submit(spec);
  EXPECT_EQ(sub.reject, Reject::kNone) << to_string(sub.reject);
  return sub.id;
}

TEST(SvcServer, GoldenIdentityAgainstDirectGenerate) {
  Server server({.workers = 2});
  // The edge set is a pure function of the spec (docs/serving.md §5), so a
  // regeneration matches at every x and rank count.
  for (const JobSpec& spec :
       {gather_spec(300, 1, 7, 4), gather_spec(200, 4, 11, 1),
        gather_spec(200, 4, 11, 3)}) {
    const JobStatus status = server.wait(must_submit(server, spec));
    ASSERT_EQ(status.state, JobState::kCompleted) << status.error;
    EXPECT_FALSE(status.from_cache);
    ASSERT_NE(status.output, nullptr);

    const auto direct = core::generate(spec.config, direct_options(spec));
    EXPECT_EQ(normalized(status.output->edges), normalized(direct.edges))
        << "served edge set must be identical to a direct call's";
    EXPECT_EQ(status.output->targets, direct.targets);
    EXPECT_EQ(status.output->total_edges, direct.total_edges);
  }
}

TEST(SvcServer, CacheServedRepeatIsIdentical) {
  Server server({.workers = 2});
  const JobSpec spec = gather_spec(256, 1, 21, 4);
  const JobStatus first = server.wait(must_submit(server, spec));
  ASSERT_EQ(first.state, JobState::kCompleted);

  const Server::Submitted repeat = server.submit(spec);
  EXPECT_TRUE(repeat.from_cache) << "repeat of a completed spec must not run";
  const JobStatus second = server.poll(repeat.id);
  ASSERT_EQ(second.state, JobState::kCompleted);
  EXPECT_TRUE(second.from_cache);
  ASSERT_NE(second.output, nullptr);

  const auto direct = core::generate(spec.config, direct_options(spec));
  EXPECT_EQ(normalized(second.output->edges), normalized(direct.edges));
  EXPECT_EQ(second.output->targets, direct.targets);
  EXPECT_GT(server.stats().cache_hits, 0u);
  EXPECT_EQ(server.stats().completed, 2u);
}

// wait() reaps a job as waitpid reaps a child: with the cache off, the
// returned status holds the only reference to the output, and the id is
// gone from the server like one it never issued.
TEST(SvcServer, WaitReleasesTheJob) {
  Server server({.workers = 1, .cache_entries = 0});
  const JobId id = must_submit(server, gather_spec(256, 1, 61, 2));
  const JobStatus status = server.wait(id);
  ASSERT_EQ(status.state, JobState::kCompleted) << status.error;
  ASSERT_NE(status.output, nullptr);
  EXPECT_EQ(status.output->edges.size(), 255u);
  EXPECT_EQ(status.output.use_count(), 1) << "the server kept the output";
  EXPECT_THROW((void)server.poll(id), CheckError);
  EXPECT_THROW((void)server.cancel(id), CheckError);
  EXPECT_THROW((void)server.wait(id), CheckError);
}

// Of two threads waiting on one id, one reaps the job and the other throws,
// whichever of them reaches wait() first.
TEST(SvcServer, OneOfTwoWaitersReapsTheJob) {
  Server server({.workers = 1, .start_paused = true});
  const JobId id = must_submit(server, gather_spec(128, 1, 62, 2));
  std::atomic<int> reaped{0};
  std::atomic<int> refused{0};
  const auto waiter = [&] {
    try {
      if (server.wait(id).state == JobState::kCompleted) ++reaped;
    } catch (const CheckError&) {
      ++refused;
    }
  };
  std::thread a(waiter);
  std::thread b(waiter);
  server.resume();
  a.join();
  b.join();
  EXPECT_EQ(reaped.load(), 1);
  EXPECT_EQ(refused.load(), 1);
}

TEST(SvcServer, StoreServedAcrossServerLifetimes) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pagen_svc_server_store")
          .string();
  std::filesystem::remove_all(dir);

  JobSpec produce = gather_spec(240, 1, 5, 3);
  produce.sink = Sink::kCompressedStore;
  produce.store_dir = dir;
  {
    Server server({.workers = 1});
    const JobStatus status = server.wait(must_submit(server, produce));
    ASSERT_EQ(status.state, JobState::kCompleted) << status.error;
    EXPECT_EQ(status.output->store_dir, dir);
  }

  // A fresh Server (fresh cache, "restarted process") serves the same spec
  // from the store on disk, bit for bit.
  JobSpec consume = produce;
  consume.sink = Sink::kGather;
  {
    Server server({.workers = 1});
    const Server::Submitted sub = server.submit(consume);
    ASSERT_EQ(sub.reject, Reject::kNone);
    EXPECT_TRUE(sub.from_cache) << "store probe must serve without running";
    const JobStatus status = server.poll(sub.id);
    ASSERT_EQ(status.state, JobState::kCompleted);
    ASSERT_NE(status.output, nullptr);

    const auto direct = core::generate(consume.config, direct_options(consume));
    EXPECT_EQ(normalized(status.output->edges), normalized(direct.edges))
        << "rank-order shard concatenation == gather order";
    EXPECT_EQ(status.output->targets, direct.targets);
    EXPECT_EQ(server.stats().cache_store_hits, 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(SvcServer, CancelQueuedThenResubmitMatchesGolden) {
  Server server({.workers = 1, .start_paused = true});
  const JobSpec spec = gather_spec(300, 1, 33, 4);
  const JobId id = must_submit(server, spec);
  EXPECT_EQ(server.poll(id).state, JobState::kQueued);
  EXPECT_TRUE(server.cancel(id));
  EXPECT_EQ(server.poll(id).state, JobState::kCancelled)
      << "a queued cancel is immediate";
  EXPECT_FALSE(server.cancel(id)) << "already terminal";
  server.resume();

  // The cancelled run left nothing behind: the resubmit generates fresh and
  // still matches the direct call.
  const Server::Submitted again = server.submit(spec);
  ASSERT_EQ(again.reject, Reject::kNone);
  EXPECT_FALSE(again.from_cache) << "a cancelled job must not be cached";
  const JobStatus status = server.wait(again.id);
  ASSERT_EQ(status.state, JobState::kCompleted);
  const auto direct = core::generate(spec.config, direct_options(spec));
  EXPECT_EQ(normalized(status.output->edges), normalized(direct.edges));
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(SvcServer, CancelRunningDrainsAndWorkerSurvives) {
  Server server({.workers = 1});
  // Large enough that the cancel lands mid-flight under any build type.
  const JobSpec big = gather_spec(400000, 1, 3, 4);
  const JobId id = must_submit(server, big);
  while (server.poll(id).state == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(server.cancel(id));
  const JobStatus status = server.wait(id);
  // Cooperative cancellation: almost always kCancelled, but a cancel that
  // arrives after the last hook poll legitimately completes.
  ASSERT_TRUE(status.state == JobState::kCancelled ||
              status.state == JobState::kCompleted)
      << to_string(status.state);

  // The worker survived the unwound world and serves the next job.
  const JobSpec small = gather_spec(200, 1, 4, 2);
  const JobStatus next = server.wait(must_submit(server, small));
  ASSERT_EQ(next.state, JobState::kCompleted) << next.error;
  const auto direct = core::generate(small.config, direct_options(small));
  EXPECT_EQ(normalized(next.output->edges), normalized(direct.edges));

  // And a resubmit of the cancelled spec reaches the same golden output.
  if (status.state == JobState::kCancelled) {
    const JobStatus redo = server.wait(must_submit(server, big));
    ASSERT_EQ(redo.state, JobState::kCompleted) << redo.error;
    const auto golden = core::generate(big.config, direct_options(big));
    EXPECT_EQ(normalized(redo.output->edges), normalized(golden.edges));
  }
}

TEST(SvcServer, VirtualDeadlines) {
  Server server({.workers = 1, .start_paused = true});
  JobSpec early = gather_spec(128, 1, 1, 2);
  early.deadline = 1;  // accepted at tick 1, expired once tick passes 1
  const JobId id = must_submit(server, early);
  (void)must_submit(server, gather_spec(128, 1, 2, 2));  // tick 2
  (void)must_submit(server, gather_spec(128, 1, 3, 2));  // tick 3
  EXPECT_EQ(server.tick(), 3u);

  // Submit-time reject: the deadline is already unreachable.
  JobSpec late = gather_spec(128, 1, 4, 2);
  late.deadline = 2;
  EXPECT_EQ(server.submit(late).reject, Reject::kDeadlineExpired);

  server.resume();
  EXPECT_EQ(server.wait(id).state, JobState::kExpired)
      << "dispatched at tick 3 > deadline 1";
  EXPECT_EQ(server.stats().expired, 1u);
}

TEST(SvcServer, QueueFullRejectsWithReason) {
  Server server(
      {.workers = 1, .queue_capacity = 2, .start_paused = true});
  (void)must_submit(server, gather_spec(128, 1, 10, 2));
  (void)must_submit(server, gather_spec(128, 1, 11, 2));
  const Server::Submitted overflow =
      server.submit(gather_spec(128, 1, 12, 2));
  EXPECT_EQ(overflow.reject, Reject::kQueueFull);
  EXPECT_EQ(overflow.id, kNoJob);
  EXPECT_EQ(server.stats().rejected, 1u);
  server.resume();
  server.shutdown(true);
  EXPECT_EQ(server.stats().completed, 2u);
}

TEST(SvcServer, InvalidSpecRejectedAtAdmission) {
  Server server({.workers = 1});
  JobSpec bad = gather_spec(128, 1, 1, 2);
  bad.config.x = 0;
  EXPECT_EQ(server.submit(bad).reject, Reject::kInvalidSpec);
}

TEST(SvcServer, TransportTheWorldRefusesIsRejectedAtAdmission) {
  // A retransmission timeout the mps World would refuse on every attempt
  // is a reject at submit, not a job that fails in the worker.
  Server server({.workers = 1});
  JobSpec bad = gather_spec(128, 1, 1, 2);
  bad.rto_base_ms = 0;
  EXPECT_EQ(server.submit(bad).reject, Reject::kInvalidSpec);
}

TEST(SvcServer, CountSinkAndCacheShapeRules) {
  Server server({.workers = 1});
  JobSpec count = gather_spec(180, 4, 9, 2);
  count.sink = Sink::kCount;
  const JobStatus counted = server.wait(must_submit(server, count));
  ASSERT_EQ(counted.state, JobState::kCompleted) << counted.error;
  EXPECT_TRUE(counted.output->edges.empty());
  EXPECT_EQ(counted.output->total_edges, expected_edge_count(count.config));

  // A count-shaped cache entry cannot serve a gather request ...
  JobSpec gather = count;
  gather.sink = Sink::kGather;
  const Server::Submitted fresh = server.submit(gather);
  ASSERT_EQ(fresh.reject, Reject::kNone);
  EXPECT_FALSE(fresh.from_cache);
  const JobStatus gathered = server.wait(fresh.id);
  ASSERT_EQ(gathered.state, JobState::kCompleted);
  EXPECT_FALSE(gathered.output->edges.empty());

  // ... but the gather output (now refreshed into the cache) serves both.
  EXPECT_TRUE(server.submit(count).from_cache);
  EXPECT_TRUE(server.submit(gather).from_cache);
}

TEST(SvcServer, DrainShutdownFinishesEverything) {
  Server server({.workers = 2, .start_paused = true});
  std::vector<JobId> ids;
  ids.reserve(4);
  for (std::uint64_t seed = 40; seed < 44; ++seed) {
    ids.push_back(must_submit(server, gather_spec(200, 1, seed, 2)));
  }
  server.shutdown(true);  // opens the pause gate, then drains
  for (const JobId id : ids) {
    EXPECT_EQ(server.poll(id).state, JobState::kCompleted);
  }
  EXPECT_EQ(server.submit(gather_spec(128, 1, 1, 2)).reject,
            Reject::kShuttingDown);
  server.shutdown(true);  // idempotent
}

TEST(SvcServer, DestructorCancelsOutstandingWork) {
  JobId queued = kNoJob;
  {
    Server server({.workers = 1, .start_paused = true});
    (void)must_submit(server, gather_spec(300000, 1, 8, 4));
    queued = must_submit(server, gather_spec(300000, 1, 9, 4));
    // No resume, no shutdown: the destructor must cancel and join without
    // wedging on the queued work.
  }
  EXPECT_NE(queued, kNoJob);
}

TEST(SvcServer, MetricsExportIsValidJson) {
  Server server({.workers = 1});
  (void)server.wait(must_submit(server, gather_spec(128, 1, 2, 2)));
  (void)server.submit(gather_spec(128, 1, 2, 2));  // one cache hit
  std::ostringstream os;
  server.write_metrics(os);
  const std::string json = os.str();
  EXPECT_EQ(pagen::testing::JsonLint::check(json), "") << json;
  EXPECT_NE(json.find("svc.completed"), std::string::npos);
  EXPECT_NE(json.find("svc.cache_hits"), std::string::npos);
  EXPECT_NE(json.find("svc.job_latency_ns"), std::string::npos);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submits, 2u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(SvcServer, FlightRecorderIncidentsCaptureCancelAndReject) {
  Server server({.workers = 1, .queue_capacity = 1, .start_paused = true});
  const JobId id = must_submit(server, gather_spec(300, 1, 41, 2));
  // Admission reject while the queue is full: a one-line incident.
  EXPECT_EQ(server.submit(gather_spec(300, 1, 42, 2)).reject,
            Reject::kQueueFull);
  // Queued cancel: the job's flight ring is dumped into the incident log.
  EXPECT_TRUE(server.cancel(id));

  const std::vector<std::string> incidents = server.incidents();
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_NE(incidents[0].find("submit rejected: queue_full"),
            std::string::npos)
      << incidents[0];
  EXPECT_NE(incidents[1].find("cancelled while queued"), std::string::npos)
      << incidents[1];
  // The dump names the transitions the job actually went through.
  EXPECT_NE(incidents[1].find("queued+"), std::string::npos) << incidents[1];
  EXPECT_NE(incidents[1].find("cancel_requested+"), std::string::npos);
  EXPECT_NE(incidents[1].find("cancelled+"), std::string::npos);
  server.resume();
  server.shutdown(true);
}

TEST(SvcServer, HealthyJobsLeaveNoIncidentsButFillLatencyStages) {
  Server server({.workers = 1});
  (void)server.wait(must_submit(server, gather_spec(256, 1, 43, 2)));
  EXPECT_TRUE(server.incidents().empty());

  // The staged latency histograms saw the job: queue wait and run time.
  std::ostringstream os;
  server.write_metrics(os);
  const std::string json = os.str();
  EXPECT_EQ(pagen::testing::JsonLint::check(json), "") << json;
  EXPECT_NE(json.find("svc.queue_wait_ns"), std::string::npos);
  EXPECT_NE(json.find("svc.run_ns"), std::string::npos);
}

TEST(SvcServer, PrometheusEndpointExportsServiceInstruments) {
  Server server({.workers = 1});
  (void)server.wait(must_submit(server, gather_spec(128, 1, 44, 2)));
  std::ostringstream os;
  server.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE pagen_svc_submits counter"), std::string::npos);
  EXPECT_NE(text.find("pagen_svc_completed 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pagen_svc_job_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("pagen_svc_job_latency_ns_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pagen_svc_job_latency_ns_p95"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pagen_svc_queue_depth gauge"),
            std::string::npos);
}

TEST(FlightRecorder, RingKeepsNewestAndRendersOffsets) {
  FlightRecorder fr;
  for (int i = 0; i < 40; ++i) fr.note("tick", i);
  EXPECT_EQ(fr.entries().size(), FlightRecorder::kCapacity);
  EXPECT_EQ(fr.dropped(), 40u - FlightRecorder::kCapacity);
  // Newest survive: the last entry carries value 39.
  EXPECT_EQ(fr.entries().back().value, 39);
  const std::string dump = fr.dump();
  EXPECT_NE(dump.find("dropped"), std::string::npos);
  EXPECT_NE(dump.find("tick+"), std::string::npos);
}

}  // namespace
}  // namespace pagen::svc
