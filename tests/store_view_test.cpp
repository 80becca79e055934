// ShardedGraphView tests (docs/storage.md §3-4): a generation run taps its
// edge stream into the compressed store, and the re-opened view must feed
// every distributed kernel the exact same graph the run produced in memory
// — plus the constructor's budget check, the merged single-stream source
// with its read-ahead contracts, and the shard range check.
#include "store/graph_view.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/distributed_bfs.h"
#include "core/distributed_cc.h"
#include "core/distributed_degree.h"
#include "core/distributed_triangles.h"
#include "core/generate.h"
#include "store/format.h"
#include "store/shard_reader.h"
#include "util/error.h"

namespace pagen::store {
namespace {

graph::EdgeList normalized(graph::EdgeList edges) {
  graph::normalize(edges);
  return edges;
}

class StoreViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("pagen_store_view_" + std::to_string(counter_++)))
               .string();

    cfg_.n = 600;
    cfg_.x = 4;
    cfg_.seed = 17;
    opt_.ranks = 3;
    opt_.scheme = partition::Scheme::kRrp;
    opt_.gather_edges = true;
    opt_.keep_shards = true;
    opt_.store_dir = dir_;
    opt_.store_block_edges = 128;  // many blocks at this scale
    result_ = core::generate(cfg_, opt_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  PaConfig cfg_;
  core::ParallelOptions opt_;
  core::ParallelResult result_;
  static int counter_;
};
int StoreViewTest::counter_ = 0;

TEST_F(StoreViewTest, ManifestMatchesGenerationRun) {
  const ShardedGraphView view(dir_);
  EXPECT_EQ(view.manifest().num_nodes, cfg_.n);
  EXPECT_EQ(view.manifest().num_shards, opt_.ranks);
  EXPECT_EQ(view.manifest().block_edges, opt_.store_block_edges);
  EXPECT_EQ(view.manifest().total_edges(), result_.total_edges);
  EXPECT_EQ(view.manifest().total_bytes(), result_.store_bytes);
}

TEST_F(StoreViewTest, ShardsRoundTripTheGeneratedEdges) {
  const ShardedGraphView view(dir_);
  graph::EdgeList reloaded;
  for (int r = 0; r < opt_.ranks; ++r) {
    const graph::EdgeList shard = view.load_shard(r);
    EXPECT_EQ(normalized(shard),
              normalized(result_.shards[static_cast<std::size_t>(r)]))
        << "shard " << r << " must hold exactly rank " << r << "'s edges";
    reloaded.insert(reloaded.end(), shard.begin(), shard.end());
  }
  EXPECT_EQ(normalized(reloaded), normalized(result_.edges));
}

TEST_F(StoreViewTest, KernelsMatchInMemoryShardsExactly) {
  // The four distributed kernels consume the store through its EdgeSource
  // and must produce results identical to the in-memory shard overloads.
  const ShardedGraphView view(dir_);
  const graph::EdgeSource source = view.edge_source();

  EXPECT_EQ(core::distributed_degree_distribution(source,
                                                  partition::Scheme::kRrp),
            core::distributed_degree_distribution(result_.shards, cfg_.n,
                                                  partition::Scheme::kRrp));

  const auto bfs_store =
      core::distributed_bfs(source, partition::Scheme::kRrp, /*source=*/0);
  const auto bfs_mem = core::distributed_bfs(result_.shards, cfg_.n,
                                             partition::Scheme::kRrp, 0);
  EXPECT_EQ(bfs_store.distances, bfs_mem.distances);
  EXPECT_EQ(bfs_store.levels, bfs_mem.levels);
  EXPECT_EQ(bfs_store.visited, bfs_mem.visited);

  const auto cc_store = core::distributed_connected_components(
      source, partition::Scheme::kRrp);
  const auto cc_mem = core::distributed_connected_components(
      result_.shards, cfg_.n, partition::Scheme::kRrp);
  EXPECT_EQ(cc_store.components, cc_mem.components);

  const auto tri_store =
      core::distributed_triangle_count(source, partition::Scheme::kRrp);
  const auto tri_mem = core::distributed_triangle_count(
      result_.shards, cfg_.n, partition::Scheme::kRrp);
  EXPECT_EQ(tri_store.triangles, tri_mem.triangles);
}

TEST_F(StoreViewTest, InMemoryEdgeSourceOverloadMatchesVectorOverload) {
  // The vector overloads now delegate through make_edge_source; the
  // wrapper itself must be transparent.
  const graph::EdgeSource source = graph::make_edge_source(cfg_.n,
                                                           result_.shards);
  EXPECT_EQ(core::distributed_degree_distribution(source,
                                                  partition::Scheme::kRrp),
            core::distributed_degree_distribution(result_.shards, cfg_.n,
                                                  partition::Scheme::kRrp));
}

TEST_F(StoreViewTest, MergedSourceRunsSingleRank) {
  const ShardedGraphView view(dir_);
  const graph::EdgeSource merged = view.merged_edge_source();
  EXPECT_EQ(merged.num_shards, 1);
  EXPECT_EQ(core::distributed_degree_distribution(merged,
                                                  partition::Scheme::kRrp),
            core::distributed_degree_distribution(result_.shards, cfg_.n,
                                                  partition::Scheme::kRrp));
}

TEST_F(StoreViewTest, MergedBatchesAreTheBlocksInRankOrder) {
  // The read-ahead keeps the serial stream: one batch per block, shards in
  // rank order, concatenating to load_all().
  const ShardedGraphView view(dir_);
  std::vector<std::size_t> block_sizes;
  for (int r = 0; r < opt_.ranks; ++r) {
    EdgeShardReader reader(shard_path(dir_, r));
    (void)reader.visit([&block_sizes](std::span<const graph::Edge> b) {
      block_sizes.push_back(b.size());
    });
  }
  graph::EdgeList merged;
  std::vector<std::size_t> batch_sizes;
  const std::thread::id caller = std::this_thread::get_id();
  view.merged_edge_source().visit_shard(
      0, [&](std::span<const graph::Edge> batch) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        batch_sizes.push_back(batch.size());
        merged.insert(merged.end(), batch.begin(), batch.end());
      });
  EXPECT_EQ(merged, view.load_all());
  EXPECT_EQ(batch_sizes, block_sizes);
  EXPECT_GT(block_sizes.size(), 4u)
      << "the store must hold more blocks than the read-ahead queue";
}

TEST_F(StoreViewTest, MergedStreamRethrowsDamageOnTheCaller) {
  // Flip a payload byte in block 1 of the last shard: the helper's
  // CheckError reaches the caller after every verified block before it,
  // and no edge of the damaged block is delivered.
  const int last = opt_.ranks - 1;
  const std::string path = shard_path(dir_, last);
  std::uintmax_t block1_payload = 0;
  {
    std::ifstream f(path, std::ios::binary);
    f.seekg(sizeof(kShardMagic));
    std::vector<std::uint8_t> head(kBlockHeaderBytes);
    f.read(reinterpret_cast<char*>(head.data()),
           static_cast<std::streamsize>(head.size()));
    block1_payload = sizeof(kShardMagic) + kBlockHeaderBytes +
                     get_block_header(head, kMaxBlockEdges).payload_bytes +
                     kBlockHeaderBytes;
  }
  const ShardedGraphView view(dir_);
  graph::EdgeList expected;
  for (int r = 0; r < last; ++r) {
    const graph::EdgeList shard = view.load_shard(r);
    expected.insert(expected.end(), shard.begin(), shard.end());
  }
  const graph::EdgeList last_shard = view.load_shard(last);
  expected.insert(expected.end(), last_shard.begin(),
                  last_shard.begin() +
                      static_cast<std::ptrdiff_t>(opt_.store_block_edges));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(block1_payload + 1));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(block1_payload + 1));
    f.put(static_cast<char>(c ^ 0x01));
  }

  graph::EdgeList delivered;
  EXPECT_THROW(view.merged_edge_source().visit_shard(
                   0,
                   [&delivered](std::span<const graph::Edge> batch) {
                     delivered.insert(delivered.end(), batch.begin(),
                                      batch.end());
                   }),
               CheckError);
  EXPECT_EQ(delivered, expected);
}

TEST_F(StoreViewTest, MergedStreamReturnsTheVisitorsException) {
  // A visitor that throws stops the read-ahead: the helper is joined and
  // the visitor's own exception leaves the call.
  struct VisitorStop {};
  const ShardedGraphView view(dir_);
  int batches = 0;
  EXPECT_THROW(view.merged_edge_source().visit_shard(
                   0,
                   [&batches](std::span<const graph::Edge>) {
                     ++batches;
                     throw VisitorStop{};
                   }),
               VisitorStop);
  EXPECT_EQ(batches, 1);
}

TEST_F(StoreViewTest, StaleShardPastTheManifestRejected) {
  // A reused directory can hold an edges.<r>.pcs beyond num_shards; a
  // visit of that shard must fail before streaming any of its edges.
  const ShardedGraphView view(dir_);
  const int stale = view.manifest().num_shards;
  std::filesystem::copy_file(shard_path(dir_, 0), shard_path(dir_, stale));
  Count delivered = 0;
  EXPECT_THROW(view.edge_source().visit_shard(
                   stale,
                   [&delivered](std::span<const graph::Edge> batch) {
                     delivered += batch.size();
                   }),
               CheckError);
  EXPECT_EQ(delivered, 0u);
}

TEST_F(StoreViewTest, BudgetGuaranteeCheckedAtOpen) {
  // Ample budget opens; a budget that cannot hold one block stream per
  // shard must refuse at construction, not drift over it at runtime.
  const ShardedGraphView ample(dir_, std::uint64_t{64} << 20);
  EXPECT_GT(ample.per_shard_stream_bytes(), 0u);
  EXPECT_LE(static_cast<std::uint64_t>(ample.manifest().num_shards) *
                ample.per_shard_stream_bytes(),
            std::uint64_t{64} << 20);
  EXPECT_THROW(ShardedGraphView(dir_, 1024), CheckError);
  const ShardedGraphView unbudgeted(dir_, 0);  // 0 = no budget
  EXPECT_EQ(unbudgeted.manifest().total_edges(), result_.total_edges);
}

TEST_F(StoreViewTest, MergedReadAheadCountsAgainstTheBudget) {
  // On one shard the merged stream's queued blocks outweigh the per-shard
  // stream, so a budget of one shard stream must refuse.
  const std::string one = dir_ + "_one";
  {
    StoreWriter writer(one, 1, 128);
    graph::EdgeList path;
    for (NodeId t = 1; t < 1000; ++t) path.push_back({t, t - 1});
    writer.append(0, path);
    (void)writer.finish(1000);
  }
  const ShardedGraphView view(one);
  EXPECT_GT(view.merged_stream_bytes(), view.per_shard_stream_bytes());
  EXPECT_THROW(ShardedGraphView(one, view.per_shard_stream_bytes()),
               CheckError);
  const ShardedGraphView fits(one, view.merged_stream_bytes());
  EXPECT_EQ(fits.merged_edge_source().num_shards, 1);
  std::filesystem::remove_all(one);
}

TEST_F(StoreViewTest, SourceOutlivesView) {
  graph::EdgeSource source;
  {
    const ShardedGraphView view(dir_);
    source = view.edge_source();
  }
  Count streamed = 0;
  for (int r = 0; r < opt_.ranks; ++r) {
    source.visit_shard(r, [&streamed](std::span<const graph::Edge> batch) {
      streamed += batch.size();
    });
  }
  EXPECT_EQ(streamed, result_.total_edges);
}

TEST_F(StoreViewTest, MissingManifestRejected) {
  EXPECT_THROW(ShardedGraphView("/nonexistent/pagen/store"), CheckError);
}

}  // namespace
}  // namespace pagen::store
