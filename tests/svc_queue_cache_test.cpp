// Unit coverage of the svc building blocks below the Server facade: JobSpec
// hashing/validation, the bounded priority JobQueue, the LRU ResultCache,
// and the store provenance marker (docs/serving.md §2–3).
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine/engine.h"
#include "core/generate.h"
#include "store/edge_writer.h"
#include "store/graph_view.h"
#include "obs/metrics.h"
#include "svc/cache.h"
#include "svc/job.h"
#include "svc/queue.h"
#include "util/error.h"

namespace pagen::svc {
namespace {

JobSpec small_spec() {
  JobSpec spec;
  spec.config.n = 64;
  spec.config.x = 1;
  spec.config.seed = 7;
  spec.ranks = 2;
  return spec;
}

// --- JobSpec: hash + validation ---

TEST(SpecHash, CoversEveryOutputShapingField) {
  const JobSpec base = small_spec();
  const std::uint64_t h = spec_hash(base);
  EXPECT_EQ(h, spec_hash(base)) << "hash must be pure";

  JobSpec s = base;
  s.config.n = 65;
  EXPECT_NE(spec_hash(s), h);
  s = base;
  s.config.x = 2;
  EXPECT_NE(spec_hash(s), h);
  s = base;
  s.config.p = 0.25;
  EXPECT_NE(spec_hash(s), h);
  s = base;
  s.config.seed = 8;
  EXPECT_NE(spec_hash(s), h);
  s = base;
  s.ranks = 3;
  EXPECT_NE(spec_hash(s), h);
  s = base;
  s.scheme = partition::Scheme::kUcp;
  EXPECT_NE(spec_hash(s), h);
}

// The engine participates in the hash (docs/serving.md §1): seq-bb draws
// another model, so the engine is part of a graph's identity, and even a
// single flipped byte in the engine name rotates it.
TEST(SpecHash, EngineParticipatesInTheHash) {
  const JobSpec base = small_spec();
  const std::uint64_t h = spec_hash(base);
  EXPECT_EQ(base.engine, "mps") << "default engine";

  JobSpec s = base;
  s.engine = "commfree";
  EXPECT_NE(spec_hash(s), h);
  s.engine = "seq-copy";
  EXPECT_NE(spec_hash(s), h);

  // Byte-flip: same length, one byte differs. spec_hash deliberately does
  // not validate names, so unregistered probes are fine here.
  s = base;
  s.engine = "mpt";
  EXPECT_NE(spec_hash(s), h);
}

TEST(SpecValidate, EngineMustBeRegisteredAndCompatible) {
  JobSpec s = small_spec();
  s.engine = "commfree";
  EXPECT_EQ(validate(s), "");

  s = small_spec();
  s.engine = "no-such-engine";
  EXPECT_NE(validate(s), "") << "unknown engine";

  s = small_spec();
  s.engine = "seq-copy";
  s.ranks = 2;
  EXPECT_NE(validate(s), "") << "single-rank engine with ranks > 1";
  s.ranks = 1;
  EXPECT_EQ(validate(s), "");

  s = small_spec();
  s.engine = "commfree";
  s.ranks = 2;
  s.reliable = true;
  EXPECT_NE(validate(s), "") << "commfree has no reliable transport";
}

TEST(SpecHash, IgnoresSchedulingAndDelivery) {
  const JobSpec base = small_spec();
  JobSpec s = base;
  s.priority = 9;
  s.deadline = 100;
  s.sink = Sink::kCount;
  s.store_dir = "/tmp/elsewhere";
  EXPECT_EQ(spec_hash(s), spec_hash(base))
      << "how a job is scheduled or delivered must not change its identity";
  // Buffering shapes when messages leave, never which graph comes out.
  s = base;
  s.buffer_capacity = 17;
  EXPECT_EQ(spec_hash(s), spec_hash(base));
  s = base;
  s.node_batch = 5;
  EXPECT_EQ(spec_hash(s), spec_hash(base));
}

TEST(SpecValidate, AcceptsAndRejects) {
  EXPECT_EQ(validate(small_spec()), "");

  JobSpec s = small_spec();
  s.config.x = 0;
  EXPECT_NE(validate(s), "");
  s = small_spec();
  s.config.n = 1;
  EXPECT_NE(validate(s), "");
  s = small_spec();
  s.config.x = 4;
  s.config.n = 4;
  EXPECT_NE(validate(s), "");
  s = small_spec();
  s.config.p = 1.5;
  EXPECT_NE(validate(s), "");
  s = small_spec();
  s.config.p = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(validate(s), "") << "NaN p";
  s = small_spec();
  s.config.x = 4;
  s.config.p = 1.0;
  EXPECT_NE(validate(s), "") << "p == 1 diverges for x > 1";
  s = small_spec();
  s.ranks = 0;
  EXPECT_NE(validate(s), "");
  s = small_spec();
  s.ranks = 128;
  EXPECT_NE(validate(s), "") << "more ranks than nodes";
  s = small_spec();
  s.buffer_capacity = 0;
  EXPECT_NE(validate(s), "");
  s = small_spec();
  s.node_batch = 0;
  EXPECT_NE(validate(s), "");
  s = small_spec();
  s.sink = Sink::kCompressedStore;
  EXPECT_NE(validate(s), "") << "store sink without a directory";
  for (const char* engine : {"mps", "commfree"}) {
    s = small_spec();
    s.engine = engine;
    s.config.n = (NodeId{1} << 62) + 2;
    s.config.x = 4;
    EXPECT_NE(validate(s).find("n * x overflows"), std::string::npos)
        << engine << ": " << validate(s);
  }
  s = small_spec();
  s.engine = "mps";
  s.config.n = (NodeId{1} << 63) + 1;
  s.config.x = 1;
  EXPECT_NE(validate(s), "") << "n past the mps F word";
}

/// The core::generate request a spec stands for, spelled out field by
/// field (independent of job_options, which validate() itself uses).
core::ParallelOptions request_options(const JobSpec& spec) {
  core::ParallelOptions opt;
  opt.engine = spec.engine;
  opt.ranks = spec.ranks;
  opt.scheme = spec.scheme;
  opt.buffer_capacity = spec.buffer_capacity;
  opt.node_batch = spec.node_batch;
  opt.gather_edges = spec.sink == Sink::kGather;
  if (spec.sink == Sink::kCompressedStore) opt.store_dir = spec.store_dir;
  opt.transport.fault_plan = spec.fault_plan;
  opt.transport.reliable = spec.reliable;
  opt.max_respawns = spec.max_respawns;
  opt.transport.rto_base_ms = spec.rto_base_ms;
  opt.transport.rto_max_ms = spec.rto_max_ms;
  return opt;
}

// The service admits exactly what the library runs: for every engine and
// every request below, generate() throws CheckError exactly when validate()
// gives a reason.
TEST(SpecValidate, AgreesWithGenerateOnEveryEngine) {
  const std::string store = ::testing::TempDir() + "pagen_parity_store";
  const std::vector<std::pair<const char*, std::function<void(JobSpec&)>>>
      requests = {
          {"x = 0", [](JobSpec& s) { s.config.x = 0; }},
          {"n = x", [](JobSpec& s) { s.config.x = s.config.n = 3; }},
          {"p = -0.1", [](JobSpec& s) { s.config.p = -0.1; }},
          {"p = NaN",
           [](JobSpec& s) {
             s.config.p = std::numeric_limits<double>::quiet_NaN();
           }},
          {"x = 3, p = 1",
           [](JobSpec& s) {
             s.config.x = 3;
             s.config.p = 1.0;
           }},
          {"ranks = 0", [](JobSpec& s) { s.ranks = 0; }},
          {"ranks > n", [](JobSpec& s) { s.ranks = 65; }},
          {"node_batch = 0", [](JobSpec& s) { s.node_batch = 0; }},
          {"buffer_capacity = 0", [](JobSpec& s) { s.buffer_capacity = 0; }},
          {"rto_base_ms = 0", [](JobSpec& s) { s.rto_base_ms = 0; }},
          {"rto_max_ms < rto_base_ms",
           [](JobSpec& s) {
             s.rto_base_ms = 50;
             s.rto_max_ms = 10;
           }},
          {"reliable, rto beyond the transport's nanosecond timers",
           [](JobSpec& s) {
             s.reliable = true;
             s.rto_base_ms = s.rto_max_ms = 10'000'000'000'000;
           }},
          {"crash plan into a store",
           [&store](JobSpec& s) {
             s.sink = Sink::kCompressedStore;
             s.store_dir = store;
             s.fault_plan = mps::FaultPlan::parse("seed=7,crash=0@50");
           }},
          {"fault plan",
           [](JobSpec& s) {
             s.fault_plan = mps::FaultPlan::parse("seed=3,drop=0.05");
           }},
          {"ranks = 2", [](JobSpec& s) { s.ranks = 2; }},
      };
  for (const core::Engine* engine : core::EngineRegistry::instance().engines()) {
    JobSpec valid = small_spec();
    valid.engine = engine->name();
    valid.ranks = 1;  // every engine runs one rank
    EXPECT_EQ(validate(valid), "") << engine->name();
    EXPECT_NO_THROW(
        (void)core::generate(valid.config, request_options(valid)))
        << engine->name();

    for (const auto& [name, edit] : requests) {
      JobSpec s = valid;
      edit(s);
      const std::string reason = validate(s);
      bool threw = false;
      try {
        (void)core::generate(s.config, request_options(s));
      } catch (const CheckError&) {
        threw = true;
      }
      EXPECT_EQ(threw, !reason.empty())
          << engine->name() << ", " << name << ": validate() gave '" << reason
          << "'";
    }
  }
}

TEST(JobEnums, StringsAndTerminality) {
  EXPECT_STREQ(to_string(JobState::kQueued), "queued");
  EXPECT_STREQ(to_string(JobState::kCompleted), "completed");
  EXPECT_STREQ(to_string(Reject::kQueueFull), "queue-full");
  EXPECT_FALSE(terminal(JobState::kQueued));
  EXPECT_FALSE(terminal(JobState::kRunning));
  EXPECT_TRUE(terminal(JobState::kCompleted));
  EXPECT_TRUE(terminal(JobState::kCancelled));
  EXPECT_TRUE(terminal(JobState::kExpired));
  EXPECT_TRUE(terminal(JobState::kFailed));
}

// --- JobQueue ---

TEST(JobQueue, PriorityThenFifo) {
  JobQueue q(8);
  // seq doubles as the admission order.
  EXPECT_TRUE(q.push(1, /*priority=*/0, /*seq=*/1));
  EXPECT_TRUE(q.push(2, /*priority=*/5, /*seq=*/2));
  EXPECT_TRUE(q.push(3, /*priority=*/5, /*seq=*/3));
  EXPECT_TRUE(q.push(4, /*priority=*/1, /*seq=*/4));
  EXPECT_EQ(q.peek(), 2u) << "highest priority first";
  EXPECT_EQ(q.pop(), 2u);
  EXPECT_EQ(q.pop(), 3u) << "FIFO within a priority";
  EXPECT_EQ(q.pop(), 4u);
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_EQ(q.pop(), kNoJob);
  EXPECT_EQ(q.peek(), kNoJob);
}

TEST(JobQueue, BoundIsTheBackpressureValve) {
  JobQueue q(2);
  EXPECT_TRUE(q.push(1, 0, 1));
  EXPECT_TRUE(q.push(2, 0, 2));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(3, 9, 3)) << "priority does not override the bound";
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_TRUE(q.push(3, 9, 3)) << "space freed by pop readmits";
}

TEST(JobQueue, RemoveIsACancelOfAQueuedJob) {
  JobQueue q(4);
  q.push(1, 0, 1);
  q.push(2, 0, 2);
  q.push(3, 0, 3);
  EXPECT_TRUE(q.remove(2));
  EXPECT_FALSE(q.remove(2)) << "already gone";
  EXPECT_FALSE(q.remove(99)) << "never queued";
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_EQ(q.pop(), 3u);
  EXPECT_TRUE(q.empty());
}

// --- ResultCache ---

std::shared_ptr<const JobOutput> output_of(Count edges) {
  auto out = std::make_shared<JobOutput>();
  out->total_edges = edges;
  return out;
}

TEST(ResultCache, LruEvictionOrderFollowsAccessHistory) {
  ResultCache cache(2);
  cache.insert(1, output_of(10));
  cache.insert(2, output_of(20));
  // 1 is now the most recent.
  ASSERT_NE(cache.lookup(1, Sink::kCount), nullptr);
  cache.insert(3, output_of(30));  // evicts 2, the least recent
  EXPECT_EQ(cache.lookup(2, Sink::kCount), nullptr);
  EXPECT_NE(cache.lookup(1, Sink::kCount), nullptr);
  EXPECT_NE(cache.lookup(3, Sink::kCount), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCache, RefreshKeepsOneEntryAndNewestValue) {
  ResultCache cache(2);
  cache.insert(1, output_of(10));
  cache.insert(1, output_of(11));
  EXPECT_EQ(cache.size(), 1u);
  const auto out = cache.lookup(1, Sink::kCount);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->total_edges, 11u) << "newer output wins";
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.insert(1, output_of(10));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(1, Sink::kCount), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCache, MirrorsTalliesIntoObsCounters) {
  obs::MetricsRegistry reg;
  ResultCache cache(1);
  cache.bind_metrics(&reg.counter("svc.cache_hits"),
                     &reg.counter("svc.cache_misses"),
                     &reg.counter("svc.cache_evictions"));
  cache.insert(1, output_of(10));
  (void)cache.lookup(1, Sink::kCount);
  (void)cache.lookup(2, Sink::kCount);
  cache.insert(2, output_of(20));  // evicts 1
  EXPECT_EQ(reg.counter("svc.cache_hits").value(), 1u);
  EXPECT_EQ(reg.counter("svc.cache_misses").value(), 1u);
  EXPECT_EQ(reg.counter("svc.cache_evictions").value(), 1u);
}

/// A gather-shaped output: it holds its `edges` (a count-shaped one holds
/// only the total).
std::shared_ptr<const JobOutput> gathered(graph::EdgeList edges) {
  auto out = std::make_shared<JobOutput>();
  out->total_edges = edges.size();
  out->edges = std::move(edges);
  return out;
}

TEST(ResultCache, LookupServesOnlyWhatTheSinkNeeds) {
  ResultCache cache(4);
  cache.insert(1, output_of(10));
  cache.insert(2, gathered({{1, 0}, {2, 0}}));
  EXPECT_NE(cache.lookup(1, Sink::kCount), nullptr);
  EXPECT_EQ(cache.lookup(1, Sink::kGather), nullptr)
      << "a count-shaped entry holds no edges to gather";
  EXPECT_NE(cache.lookup(2, Sink::kCount), nullptr);
  EXPECT_NE(cache.lookup(2, Sink::kGather), nullptr);
  for (const std::uint64_t key : {1, 2}) {
    EXPECT_EQ(cache.lookup(key, Sink::kCompressedStore), nullptr)
        << "the store probe is kCompressedStore's cache";
  }
  EXPECT_EQ(cache.hits(), 3u) << "a hit is counted exactly when it serves";
  EXPECT_EQ(cache.misses(), 3u);

  // A lookup that serves nothing leaves recency alone.
  ResultCache lru(2);
  lru.insert(1, output_of(10));
  lru.insert(2, output_of(20));
  EXPECT_EQ(lru.lookup(1, Sink::kGather), nullptr);
  lru.insert(3, output_of(30));  // evicts 1, still the least recent
  EXPECT_EQ(lru.lookup(1, Sink::kCount), nullptr);
  EXPECT_NE(lru.lookup(2, Sink::kCount), nullptr);
}

TEST(ResultCache, RefreshNeverDropsTheEdges) {
  ResultCache cache(2);
  cache.insert(1, gathered({{1, 0}, {2, 1}}));
  cache.insert(1, output_of(2));  // e.g. a store job of the same spec
  EXPECT_EQ(cache.size(), 1u);
  const auto out = cache.lookup(1, Sink::kGather);
  ASSERT_NE(out, nullptr) << "the count-shaped refresh dropped the edges";
  EXPECT_EQ(out->edges, (graph::EdgeList{{1, 0}, {2, 1}}));
}

// --- Store provenance marker ---

class StoreMarkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("pagen_svc_marker_" + std::to_string(counter_++)))
               .string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  static int counter_;
};
int StoreMarkerTest::counter_ = 0;

/// Generates `spec` into a compressed store in `dir` (unsealed).
void write_store(const std::string& dir, const JobSpec& spec) {
  core::ParallelOptions opt;
  opt.ranks = spec.ranks;
  opt.scheme = spec.scheme;
  opt.gather_edges = false;
  opt.store_dir = dir;
  (void)core::generate(spec.config, opt);
}

/// Builds a complete, sealed store for `spec` in `dir`.
void build_store(const std::string& dir, const JobSpec& spec) {
  write_store(dir, spec);
  write_store_marker(dir, spec_hash(spec));
}

TEST_F(StoreMarkerTest, CompleteStoreWithMatchingMarkerServes) {
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  build_store(dir_, spec);

  EXPECT_TRUE(store_matches(dir_, spec));

  JobSpec other = spec;
  other.config.seed = 99;
  EXPECT_FALSE(store_matches(dir_, other))
      << "the manifest alone cannot tell two seeds apart — the marker must";
}

TEST_F(StoreMarkerTest, MatchCarriesTheOutputToServe) {
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  build_store(dir_, spec);

  // kGather: the rank-order decode, and the x = 1 targets row read off it.
  const StoreProbe gather = probe_store(dir_, spec);
  ASSERT_TRUE(gather.match) << gather.detail;
  ASSERT_NE(gather.output, nullptr);
  const graph::EdgeList stored = store::ShardedGraphView(dir_).load_all();
  EXPECT_EQ(gather.output->edges, stored);
  EXPECT_EQ(gather.output->total_edges, stored.size());
  EXPECT_EQ(gather.output->store_dir, dir_);
  ASSERT_EQ(gather.output->targets.size(), spec.config.n);
  EXPECT_EQ(gather.output->targets[0], kNil);
  for (const graph::Edge& e : stored) {
    EXPECT_EQ(gather.output->targets[e.u], e.v);
  }

  // kCount: the verify pass, and only the tallies.
  spec.sink = Sink::kCount;
  const StoreProbe count = probe_store(dir_, spec);
  ASSERT_TRUE(count.match) << count.detail;
  ASSERT_NE(count.output, nullptr);
  EXPECT_TRUE(count.output->edges.empty());
  EXPECT_TRUE(count.output->targets.empty());
  EXPECT_EQ(count.output->total_edges, expected_edge_count(spec.config));

  // No match, no output.
  spec.config.seed = 99;
  EXPECT_EQ(probe_store(dir_, spec).output, nullptr);
}

TEST_F(StoreMarkerTest, MissingPiecesAreAMissNotAnError) {
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  EXPECT_FALSE(store_matches(dir_, spec)) << "directory does not even exist";

  // Sealing a storeless directory is impossible: the marker records the
  // manifest's seal, read at write time.
  std::filesystem::create_directories(dir_);
  EXPECT_THROW(write_store_marker(dir_, spec_hash(spec)), CheckError);
  EXPECT_FALSE(store_matches(dir_, spec));

  // Corrupt marker next to a real store: a miss.
  write_store(dir_, spec);
  {
    std::ofstream os(store_marker_path(dir_), std::ios::trunc);
    os << "not-a-marker\n";
  }
  EXPECT_FALSE(store_matches(dir_, spec));
}

TEST_F(StoreMarkerTest, RetiredMarkerTagsAreAMiss) {
  // A marker of a retired layout (v2 sealed the raw sharded format, v3
  // checksummed every file over a v3 manifest) names this spec but is never
  // trusted: a plain miss, so the directory is regenerated under a current
  // seal rather than quarantined.
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  write_store(dir_, spec);
  for (const char* tag : {"pagen.svc.store.v2", "pagen.svc.store.v3"}) {
    SCOPED_TRACE(tag);
    {
      std::ofstream os(store_marker_path(dir_), std::ios::trunc);
      os << tag << " " << std::hex << spec_hash(spec) << "\n";
    }
    const StoreProbe probe = probe_store(dir_, spec);
    EXPECT_FALSE(probe.match);
    EXPECT_FALSE(probe.corrupt);
  }
}

TEST_F(StoreMarkerTest, MarkerNeverServesAnotherSpecsStore) {
  // Spec B, written over spec A's sealed store without re-marking it, is a
  // valid store of the same n, x and ranks: only the marker's seal, which
  // pins A's manifest and through it A's header chains, tells them apart.
  JobSpec a = small_spec();
  a.store_dir = dir_;
  build_store(dir_, a);
  ASSERT_TRUE(probe_store(dir_, a).match);

  JobSpec b = a;
  b.config.seed = a.config.seed + 1;
  write_store(dir_, b);
  const StoreProbe probe = probe_store(dir_, a);
  EXPECT_FALSE(probe.match);
  EXPECT_TRUE(probe.corrupt) << "A's marker over B's store is corruption";
}

/// Flip one byte in the middle of `path`.
void flip_byte(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(0, std::ios::end);
  const auto size = f.tellg();
  ASSERT_GT(size, 0);
  f.seekg(static_cast<std::streamoff>(size) / 2);
  char b = 0;
  f.read(&b, 1);
  f.seekp(static_cast<std::streamoff>(size) / 2);
  b = static_cast<char>(b ^ 0x01);
  f.write(&b, 1);
}

TEST_F(StoreMarkerTest, ByteFlippedMarkerNeverMatches) {
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  build_store(dir_, spec);
  ASSERT_TRUE(store_matches(dir_, spec));

  flip_byte(store_marker_path(dir_));
  EXPECT_FALSE(store_matches(dir_, spec))
      << "a rotten marker must never serve (any parse is a miss or corrupt)";
}

TEST_F(StoreMarkerTest, ByteFlippedShardIsCorruptAndQuarantinable) {
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  build_store(dir_, spec);
  ASSERT_TRUE(probe_store(dir_, spec).match);

  flip_byte(store::shard_path(dir_, 0));
  const StoreProbe probe = probe_store(dir_, spec);
  EXPECT_FALSE(probe.match);
  EXPECT_TRUE(probe.corrupt) << "the marker claims this spec, so a content "
                                "mismatch is corruption, not a miss";
  EXPECT_NE(probe.detail.find("shard 0"), std::string::npos) << probe.detail;

  EXPECT_TRUE(quarantine_store(dir_));
  EXPECT_FALSE(probe_store(dir_, spec).corrupt) << "quarantined = plain miss";
  EXPECT_FALSE(store_matches(dir_, spec));
  EXPECT_TRUE(std::filesystem::exists(store_marker_path(dir_) +
                                      ".quarantined"))
      << "the poisoned marker is kept aside for post-mortem";

  // Regeneration over the same directory re-seals it.
  build_store(dir_, spec);
  EXPECT_TRUE(store_matches(dir_, spec));
}

TEST_F(StoreMarkerTest, ByteFlippedManifestIsCorrupt) {
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  build_store(dir_, spec);

  flip_byte(store::manifest_path(dir_));
  const StoreProbe probe = probe_store(dir_, spec);
  EXPECT_FALSE(probe.match);
  EXPECT_TRUE(probe.corrupt);
}

// --- JobQueue: retry backoff eligibility and the shedding ladder ---

TEST(JobQueue, NotBeforeHidesEntriesUntilTheVirtualTick) {
  JobQueue q(4);
  EXPECT_TRUE(q.push(1, /*priority=*/5, /*seq=*/1, /*not_before=*/10));
  EXPECT_TRUE(q.push(2, /*priority=*/0, /*seq=*/2));
  EXPECT_EQ(q.peek(3), 2u) << "job 1 outranks 2 but is still in backoff";
  EXPECT_EQ(q.pop(3), 2u);
  EXPECT_EQ(q.pop(9), kNoJob) << "one tick early";
  EXPECT_EQ(q.earliest_ready(), 10u);
  EXPECT_EQ(q.pop(10), 1u) << "eligible exactly at not_before";
  EXPECT_EQ(q.earliest_ready(), JobQueue::kAnyTick) << "empty queue";
}

TEST(JobQueue, DefaultPopIgnoresBackoff) {
  JobQueue q(4);
  EXPECT_TRUE(q.push(1, 0, 1, /*not_before=*/100));
  EXPECT_EQ(q.pop(), 1u) << "the shutdown drain pops regardless of backoff";
}

TEST(JobQueue, ForcePushBypassesTheBound) {
  JobQueue q(1);
  EXPECT_TRUE(q.push(1, 0, 1));
  EXPECT_FALSE(q.push(2, 0, 2));
  EXPECT_TRUE(q.push(2, 0, 2, 0, /*force=*/true))
      << "a retry requeue must never lose an admitted job";
  EXPECT_EQ(q.size(), 2u);
}

TEST(JobQueue, ShedBelowEvictsYoungestOfLowestPriority) {
  JobQueue q(4);
  q.push(1, /*priority=*/0, /*seq=*/1);
  q.push(2, /*priority=*/0, /*seq=*/2);
  q.push(3, /*priority=*/3, /*seq=*/3);
  EXPECT_EQ(q.shed_below(5), 2u)
      << "lowest priority first, youngest within it (least invested)";
  EXPECT_EQ(q.shed_below(5), 1u);
  EXPECT_EQ(q.shed_below(3), kNoJob)
      << "equal priority never sheds — strictly-below only";
  EXPECT_EQ(q.shed_below(4), 3u);
  EXPECT_EQ(q.shed_below(9), kNoJob) << "empty";
}

}  // namespace
}  // namespace pagen::svc
