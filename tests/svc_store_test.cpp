// Service-level compressed-store tests (docs/serving.md §3, storage.md §3):
// a Sink::kCompressedStore job streams its edges into the block store and
// seals it with a v4 marker; a fresh server serves repeats straight from
// the store; a corrupted store is quarantined and regenerated, never
// served, not even by the memory cache of the server that wrote it; a
// store serve counts once, and a store job never replaces a cached
// gather's edges; and crash-injection plans are rejected at submit because
// re-emission would duplicate blocks.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/generate.h"
#include "store/edge_writer.h"
#include "store/graph_view.h"
#include "svc/cache.h"
#include "svc/server.h"

namespace pagen::svc {
namespace {

graph::EdgeList normalized(graph::EdgeList edges) {
  graph::normalize(edges);
  return edges;
}

class SvcStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("pagen_svc_store_" + std::to_string(counter_++)))
               .string();
    std::filesystem::remove_all(dir_);

    spec_.config.n = 320;
    spec_.config.x = 1;
    spec_.config.seed = 41;
    spec_.ranks = 3;
    spec_.sink = Sink::kCompressedStore;
    spec_.store_dir = dir_;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  JobId must_submit(Server& server, const JobSpec& spec) {
    const Server::Submitted sub = server.submit(spec);
    EXPECT_EQ(sub.reject, Reject::kNone) << to_string(sub.reject);
    return sub.id;
  }

  std::string dir_;
  JobSpec spec_;
  static int counter_;
};
int SvcStoreTest::counter_ = 0;

TEST_F(SvcStoreTest, CompressedStoreJobSealsAReloadableStore) {
  Server server({.workers = 1});
  const JobStatus status = server.wait(must_submit(server, spec_));
  ASSERT_EQ(status.state, JobState::kCompleted) << status.error;
  EXPECT_EQ(status.output->store_dir, dir_);
  EXPECT_TRUE(status.output->edges.empty())
      << "a store job never materializes its edges in the output";

  // The directory is a valid compressed store with a v4 marker, and the
  // reloaded edges match a direct generation of the same spec.
  ASSERT_TRUE(std::filesystem::exists(store::manifest_path(dir_)));
  EXPECT_TRUE(std::filesystem::exists(store_marker_path(dir_)));
  const store::ShardedGraphView view(dir_, std::uint64_t{32} << 20);
  EXPECT_EQ(view.manifest().total_edges(), status.output->total_edges);

  core::ParallelOptions direct_opt;
  direct_opt.ranks = spec_.ranks;
  const auto direct = core::generate(spec_.config, direct_opt);
  EXPECT_EQ(normalized(view.load_all()), normalized(direct.edges));
}

// At x = 1 and at x = 4, on three ranks: the served edges equal a direct
// generation, which runs with ParallelOptions' buffering, not the spec's.
TEST_F(SvcStoreTest, FreshServerServesGatherFromCompressedStore) {
  for (const NodeId x : {1, 4}) {
    SCOPED_TRACE("x=" + std::to_string(x));
    std::filesystem::remove_all(dir_);
    spec_.config.x = x;
    {
      Server server({.workers = 1});
      ASSERT_EQ(server.wait(must_submit(server, spec_)).state,
                JobState::kCompleted);
    }
    // "Restarted process": a fresh server with an empty cache must probe
    // the on-disk store and serve the repeat without running the
    // generators.
    JobSpec consume = spec_;
    consume.sink = Sink::kGather;
    Server server({.workers = 1});
    const Server::Submitted sub = server.submit(consume);
    ASSERT_EQ(sub.reject, Reject::kNone);
    EXPECT_TRUE(sub.from_cache) << "compressed-store probe must serve";
    const JobStatus status = server.poll(sub.id);
    ASSERT_EQ(status.state, JobState::kCompleted);
    ASSERT_NE(status.output, nullptr);

    core::ParallelOptions direct_opt;
    direct_opt.ranks = consume.ranks;
    const auto direct = core::generate(consume.config, direct_opt);
    EXPECT_EQ(normalized(status.output->edges), normalized(direct.edges))
        << "store-served edges must match a direct run bit for bit";
    EXPECT_EQ(server.stats().cache_store_hits, 1u);
  }
}

TEST_F(SvcStoreTest, CorruptStoreQuarantinedAndRegenerated) {
  {
    Server server({.workers = 1});
    ASSERT_EQ(server.wait(must_submit(server, spec_)).state,
              JobState::kCompleted);
  }
  // Flip one payload byte in shard 1 behind the marker's back.
  {
    const std::string path = store::shard_path(dir_, 1);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(60);
    char c = 0;
    f.get(c);
    f.seekp(60);
    f.put(static_cast<char>(c ^ 1));
  }

  Server server({.workers = 1});
  const Server::Submitted sub = server.submit(spec_);
  ASSERT_EQ(sub.reject, Reject::kNone);
  EXPECT_FALSE(sub.from_cache) << "a corrupt store must never be served";
  const JobStatus status = server.wait(sub.id);
  ASSERT_EQ(status.state, JobState::kCompleted) << status.error;

  // PR 8 quarantine contract: the poisoned marker moved to *.quarantined,
  // the job regenerated, and the resealed store is valid again.
  EXPECT_TRUE(
      std::filesystem::exists(store_marker_path(dir_) + ".quarantined"));
  EXPECT_GE(server.stats().quarantined_stores, 1u);
  const store::ShardedGraphView view(dir_);
  EXPECT_EQ(view.manifest().total_edges(), status.output->total_edges);
}

TEST_F(SvcStoreTest, MemoryCacheNeverServesACorruptedStore) {
  // The server that wrote the store still holds the job's output in its
  // memory cache; the store rots after that. The repeat must go through
  // the probe, which verifies the store, and not be answered from memory.
  Server server({.workers = 1});
  ASSERT_EQ(server.wait(must_submit(server, spec_)).state,
            JobState::kCompleted);
  {  // as in CorruptStoreQuarantinedAndRegenerated
    const std::string path = store::shard_path(dir_, 1);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(60);
    char c = 0;
    f.get(c);
    f.seekp(60);
    f.put(static_cast<char>(c ^ 1));
  }

  const Server::Submitted sub = server.submit(spec_);
  ASSERT_EQ(sub.reject, Reject::kNone);
  EXPECT_FALSE(sub.from_cache) << "a corrupt store must never be served";
  EXPECT_TRUE(
      std::filesystem::exists(store_marker_path(dir_) + ".quarantined"));
  const JobStatus status = server.wait(sub.id);
  ASSERT_EQ(status.state, JobState::kCompleted) << status.error;
  EXPECT_TRUE(store_matches(dir_, spec_)) << "the store was resealed";
}

TEST_F(SvcStoreTest, GatherEntrySurvivesAStoreJobOfTheSameSpec) {
  // A store job's output holds no edges; completing it must not replace
  // the cached gather of the same spec, so the next gather is a memory
  // hit and not a decode of the store.
  JobSpec gather = spec_;
  gather.sink = Sink::kGather;
  Server server({.workers = 1});
  ASSERT_EQ(server.wait(must_submit(server, gather)).state,
            JobState::kCompleted);
  ASSERT_FALSE(std::filesystem::exists(store_marker_path(dir_)));
  ASSERT_EQ(server.wait(must_submit(server, spec_)).state,
            JobState::kCompleted);
  ASSERT_TRUE(store_matches(dir_, spec_));

  const ServerStats before = server.stats();
  const Server::Submitted sub = server.submit(gather);
  ASSERT_EQ(sub.reject, Reject::kNone);
  EXPECT_TRUE(sub.from_cache);
  const ServerStats after = server.stats();
  EXPECT_EQ(after.cache_hits, before.cache_hits + 1);
  EXPECT_EQ(after.cache_store_hits, before.cache_store_hits)
      << "served by decoding the store instead of from memory";
  EXPECT_FALSE(server.poll(sub.id).output->edges.empty());
}

TEST_F(SvcStoreTest, StoreServeCountsOnce) {
  // The server that wrote the store holds its output in memory, but a
  // kCompressedStore repeat is served by the probe alone: one memory miss
  // plus one store hit, and no memory hit.
  Server server({.workers = 1});
  ASSERT_EQ(server.wait(must_submit(server, spec_)).state,
            JobState::kCompleted);
  const ServerStats before = server.stats();
  const Server::Submitted sub = server.submit(spec_);
  ASSERT_EQ(sub.reject, Reject::kNone);
  EXPECT_TRUE(sub.from_cache);
  const ServerStats after = server.stats();
  EXPECT_EQ(after.cache_store_hits, before.cache_store_hits + 1);
  EXPECT_EQ(after.cache_misses, before.cache_misses + 1);
  EXPECT_EQ(after.cache_hits, before.cache_hits);
}

TEST_F(SvcStoreTest, CompressedStoreRequiresStoreDir) {
  JobSpec bad = spec_;
  bad.store_dir.clear();
  EXPECT_FALSE(validate(bad).empty());
  Server server({.workers = 1});
  EXPECT_EQ(server.submit(bad).reject, Reject::kInvalidSpec);
}

TEST_F(SvcStoreTest, CrashPlansRejectedForCompressedStore) {
  // A respawned rank re-emits its restored edges; for an append-only block
  // store that means duplicated blocks, so the combination is inadmissible.
  JobSpec bad = spec_;
  bad.fault_plan = mps::FaultPlan::parse("seed=7,crash=1@50");
  EXPECT_FALSE(validate(bad).empty());
  Server server({.workers = 1});
  EXPECT_EQ(server.submit(bad).reject, Reject::kInvalidSpec);
}

TEST_F(SvcStoreTest, RetryRegeneratesFromScratch) {
  // max_attempts > 1 must be admissible — retries for a compressed-store
  // job cold-start instead of resuming from a checkpoint.
  spec_.max_attempts = 2;
  Server server({.workers = 1});
  const JobStatus status = server.wait(must_submit(server, spec_));
  ASSERT_EQ(status.state, JobState::kCompleted) << status.error;
  EXPECT_TRUE(std::filesystem::exists(store::manifest_path(dir_)));
}

}  // namespace
}  // namespace pagen::svc
