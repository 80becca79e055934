// Streaming generation (ParallelOptions::edge_batch_sink): "generate on the
// fly and analyze without performing disk I/O" (Section 3.2).
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/copy_model_seq.h"
#include "core/generate.h"
#include "graph/edge_list.h"

namespace pagen::core {
namespace {

TEST(Streaming, SinkSeesEveryEdgeExactlyOnce) {
  const PaConfig cfg{.n = 20000, .x = 4, .p = 0.5, .seed = 21};
  ParallelOptions opt;
  opt.ranks = 8;
  opt.gather_edges = false;
  std::atomic<Count> streamed{0};
  opt.edge_batch_sink = [&](Rank, std::span<const graph::Edge> es) {
    streamed.fetch_add(es.size(), std::memory_order_relaxed);
  };
  const auto result = generate(cfg, opt);
  EXPECT_EQ(streamed.load(), expected_edge_count(cfg));
  EXPECT_EQ(result.total_edges, expected_edge_count(cfg));
  EXPECT_TRUE(result.edges.empty()) << "nothing stored in streaming mode";
}

TEST(Streaming, PerRankBucketsNeedNoLocking) {
  // The documented pattern: rank-indexed accumulators.
  const PaConfig cfg{.n = 30000, .x = 1, .p = 0.5, .seed = 4};
  ParallelOptions opt;
  opt.ranks = 6;
  opt.gather_edges = false;
  std::vector<std::vector<Count>> deg_per_rank(
      6, std::vector<Count>(cfg.n, 0));
  opt.edge_batch_sink = [&](Rank r, std::span<const graph::Edge> es) {
    auto& deg = deg_per_rank[static_cast<std::size_t>(r)];
    for (const graph::Edge& e : es) {
      ++deg[e.u];
      ++deg[e.v];
    }
  };
  (void)generate(cfg, opt);

  // Folding the rank buckets reproduces the exact degree sequence.
  std::vector<Count> deg(cfg.n, 0);
  for (const auto& bucket : deg_per_rank) {
    for (NodeId v = 0; v < cfg.n; ++v) deg[v] += bucket[v];
  }
  const auto reference =
      graph::degree_sequence(baseline::copy_model_x1(cfg), cfg.n);
  EXPECT_EQ(deg, reference);
}

TEST(Streaming, SinkComposesWithGathering) {
  const PaConfig cfg{.n = 5000, .x = 3, .p = 0.5, .seed = 6};
  ParallelOptions opt;
  opt.ranks = 4;
  std::atomic<Count> streamed{0};
  opt.edge_batch_sink = [&](Rank, std::span<const graph::Edge> es) {
    streamed += es.size();
  };
  const auto result = generate(cfg, opt);
  EXPECT_EQ(streamed.load(), result.edges.size());
}

TEST(Streaming, SinkRankMatchesEdgeOwner) {
  const PaConfig cfg{.n = 8000, .x = 2, .p = 0.5, .seed = 8};
  ParallelOptions opt;
  opt.ranks = 5;
  opt.scheme = partition::Scheme::kRrp;
  opt.gather_edges = false;
  const auto part = partition::make_partition(opt.scheme, cfg.n, opt.ranks);
  std::atomic<int> violations{0};
  opt.edge_batch_sink = [&](Rank r, std::span<const graph::Edge> es) {
    // Every emitted edge's newer endpoint belongs to the emitting rank.
    for (const graph::Edge& e : es) {
      if (part->owner(e.u) != r) ++violations;
    }
  };
  (void)generate(cfg, opt);
  EXPECT_EQ(violations.load(), 0);
}

// The batch-sink contract, engine by engine: each rank's batches, joined in
// order, are exactly that rank's shard; every batch but a rank's last holds
// edge_batch_capacity edges; every edge belongs to the rank that streamed
// it; and a run that does not gather returns no targets row.
TEST(Streaming, BatchContractHoldsForEveryEngine) {
  struct Run {
    const char* engine;
    int ranks;
  };
  for (const Run run : {Run{"mps", 3}, Run{"commfree", 3}, Run{"seq-copy", 1},
                        Run{"seq-bb", 1}}) {
    for (const NodeId x : {1U, 3U}) {
      const std::string label =
          std::string(run.engine) + " x=" + std::to_string(x);
      const PaConfig cfg{.n = 15000, .x = x, .p = 0.5, .seed = 17};
      ParallelOptions opt;
      opt.engine = run.engine;
      opt.ranks = run.ranks;
      opt.gather_edges = false;
      opt.keep_shards = true;
      const std::size_t cap = opt.edge_batch_capacity;
      std::vector<std::vector<graph::EdgeList>> batches(
          static_cast<std::size_t>(run.ranks));
      opt.edge_batch_sink = [&](Rank r, std::span<const graph::Edge> es) {
        batches[static_cast<std::size_t>(r)].emplace_back(es.begin(),
                                                          es.end());
      };
      const ParallelResult result = generate(cfg, opt);

      EXPECT_TRUE(result.targets.empty()) << label;
      EXPECT_TRUE(result.edges.empty()) << label;
      ASSERT_EQ(result.shards.size(), batches.size()) << label;
      const auto part = partition::make_partition(opt.scheme, cfg.n, opt.ranks);
      std::size_t largest = 0;
      Count streamed = 0;
      for (std::size_t r = 0; r < batches.size(); ++r) {
        graph::EdgeList joined;
        for (std::size_t b = 0; b < batches[r].size(); ++b) {
          const graph::EdgeList& batch = batches[r][b];
          if (b + 1 < batches[r].size()) {
            EXPECT_EQ(batch.size(), cap) << label << " rank " << r;
          } else {
            EXPECT_GE(batch.size(), 1U) << label << " rank " << r;
            EXPECT_LE(batch.size(), cap) << label << " rank " << r;
          }
          joined.insert(joined.end(), batch.begin(), batch.end());
        }
        EXPECT_TRUE(joined == result.shards[r]) << label << " rank " << r;
        for (const graph::Edge& e : joined) {
          ASSERT_EQ(part->owner(std::max(e.u, e.v)), static_cast<Rank>(r))
              << label;
        }
        largest = std::max(largest, joined.size());
        streamed += joined.size();
      }
      EXPECT_GT(largest, cap) << label << ": no rank filled a whole batch";
      EXPECT_EQ(streamed, result.total_edges) << label;
    }
  }
}

// The output contract under a crash: the run relaunches every rank from its
// checkpoint (or from scratch without a checkpoint_dir), so the gathered
// edges are copy_model_general's exactly once, while the sink — which also
// saw the crashed world's batches and the re-emitted restored edges — gets
// every edge at least once.
TEST(Streaming, CrashGathersExactlyOnceAndStreamsAtLeastOnce) {
  const PaConfig cfg{.n = 4000, .x = 3, .p = 0.5, .seed = 9};
  graph::EdgeList oracle = baseline::copy_model_general(cfg).edges;
  graph::normalize(oracle);
  for (const bool checkpoint : {false, true}) {
    SCOPED_TRACE(checkpoint ? "with checkpoint_dir" : "without checkpoint_dir");
    ParallelOptions opt;
    opt.ranks = 4;
    // Small buffers and batches put the scripted crash mid-generation.
    opt.buffer_capacity = 4;
    opt.node_batch = 128;
    opt.checkpoint_every = 256;
    opt.transport.fault_plan = mps::FaultPlan::parse("seed=3,crash=2@100");
    if (checkpoint) {
      opt.checkpoint_dir = ::testing::TempDir() + "pagen_streaming_crash";
      std::filesystem::remove_all(opt.checkpoint_dir);
      std::filesystem::create_directories(opt.checkpoint_dir);
    }
    std::mutex mu;
    graph::EdgeList streamed;
    opt.edge_batch_sink = [&](Rank, std::span<const graph::Edge> es) {
      const std::lock_guard lock(mu);
      streamed.insert(streamed.end(), es.begin(), es.end());
    };
    const ParallelResult result = generate(cfg, opt);
    ASSERT_EQ(result.respawns, 1u) << "the scripted crash did not fire";

    graph::EdgeList gathered = result.edges;
    graph::normalize(gathered);
    EXPECT_EQ(gathered, oracle);

    EXPECT_GE(streamed.size(), result.total_edges);
    graph::normalize(streamed);
    streamed.erase(std::unique(streamed.begin(), streamed.end()),
                   streamed.end());
    EXPECT_EQ(streamed, oracle);
  }
}

}  // namespace
}  // namespace pagen::core
