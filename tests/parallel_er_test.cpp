#include "core/parallel_er.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "graph/edge_list.h"
#include "util/error.h"

namespace pagen::core {
namespace {

TEST(PairFromIndex, EnumeratesLexicographically) {
  // idx: 0->(1,0) 1->(2,0) 2->(2,1) 3->(3,0) ...
  EXPECT_EQ(pair_from_index(0), (graph::Edge{1, 0}));
  EXPECT_EQ(pair_from_index(1), (graph::Edge{2, 0}));
  EXPECT_EQ(pair_from_index(2), (graph::Edge{2, 1}));
  EXPECT_EQ(pair_from_index(3), (graph::Edge{3, 0}));
  EXPECT_EQ(pair_from_index(5), (graph::Edge{3, 2}));
}

TEST(PairFromIndex, InverseOfLinearization) {
  for (Count idx = 0; idx < 50000; ++idx) {
    const auto e = pair_from_index(idx);
    EXPECT_EQ(e.u * (e.u - 1) / 2 + e.v, idx);
    EXPECT_LT(e.v, e.u);
  }
}

TEST(PairFromIndex, LargeIndicesExact) {
  // Indices near 2^53 stress the floating-point inverse + correction.
  for (Count idx : {Count{1} << 40, (Count{1} << 52) + 12345,
                    (Count{1} << 53) - 7}) {
    const auto e = pair_from_index(idx);
    EXPECT_EQ(e.u * (e.u - 1) / 2 + e.v, idx);
  }
}

TEST(PairFromIndex, LargestIndexExact) {
  // v(v - 1) exceeds 2^64 here, so the correction must not wrap.
  const Count idx = ~Count{0};
  const auto e = pair_from_index(idx);
  EXPECT_LT(e.v, e.u);
  EXPECT_EQ(static_cast<unsigned __int128>(e.u) * (e.u - 1) / 2 + e.v, idx);
}

TEST(ParallelEr, CompleteGraphExact) {
  const auto result = generate_er({.n = 40, .p = 1.0, .seed = 1}, 7);
  EXPECT_EQ(result.total_edges, 40u * 39 / 2);
  EXPECT_EQ(graph::count_duplicates(result.edges), 0u);
  EXPECT_EQ(graph::count_self_loops(result.edges), 0u);
}

TEST(ParallelEr, EmptyAtZeroP) {
  const auto result = generate_er({.n = 100, .p = 0.0, .seed = 1}, 4);
  EXPECT_EQ(result.total_edges, 0u);
}

TEST(ParallelEr, NoDuplicatesAcrossChunkBoundaries) {
  const auto result = generate_er({.n = 2000, .p = 0.01, .seed = 5}, 16);
  EXPECT_EQ(graph::count_duplicates(result.edges), 0u);
  EXPECT_EQ(graph::count_self_loops(result.edges), 0u);
  for (const auto& e : result.edges) {
    EXPECT_LT(e.v, e.u);
    EXPECT_LT(e.u, 2000u);
  }
}

TEST(ParallelEr, EdgeCountNearExpectation) {
  const NodeId n = 3000;
  const double p = 0.01;
  for (int ranks : {1, 4, 32}) {
    const auto result = generate_er({.n = n, .p = p, .seed = 7}, ranks);
    const double expected = p * n * (n - 1) / 2.0;
    const double sigma = std::sqrt(expected * (1 - p));
    EXPECT_NEAR(static_cast<double>(result.total_edges), expected, 5 * sigma)
        << "ranks=" << ranks;
  }
}

TEST(ParallelEr, DeterministicInSeedAndRanks) {
  const baseline::ErConfig cfg{.n = 1000, .p = 0.02, .seed = 11};
  const auto a = generate_er(cfg, 8);
  const auto b = generate_er(cfg, 8);
  EXPECT_EQ(a.edges, b.edges);
}

TEST(ParallelEr, ShardsPartitionTheIndexSpace) {
  const auto result = generate_er({.n = 500, .p = 0.05, .seed = 3}, 6);
  // Each shard's edges must fall inside its contiguous linear-index chunk,
  // so shard maxima are ordered.
  const Count total_pairs = 500u * 499 / 2;
  for (std::size_t r = 0; r < result.shards.size(); ++r) {
    const Count begin = total_pairs * r / result.shards.size();
    const Count end = total_pairs * (r + 1) / result.shards.size();
    for (const auto& e : result.shards[r]) {
      const Count idx = e.u * (e.u - 1) / 2 + e.v;
      EXPECT_GE(idx, begin) << "rank " << r;
      EXPECT_LT(idx, end) << "rank " << r;
    }
  }
}

TEST(ParallelEr, ChunkBoundsHoldAtABillionNodes) {
  // C·(r + 1) passes 2^64 at n = 10⁹ from r + 1 = 37; the bounds must not
  // wrap, or high ranks sample the wrong chunk and the top of the pair
  // space is never reached. ~5·10⁵ edges over 64 ranks.
  using u128 = unsigned __int128;
  const baseline::ErConfig cfg{.n = 1'000'000'000, .p = 1e-12, .seed = 13};
  const int ranks = 64;
  const auto result = generate_er(cfg, ranks, /*gather=*/false);
  ASSERT_EQ(result.shards.size(), static_cast<std::size_t>(ranks));

  const u128 total_pairs = static_cast<u128>(cfg.n) * (cfg.n - 1) / 2;
  NodeId largest = 0;
  for (std::size_t r = 0; r < result.shards.size(); ++r) {
    const u128 begin = total_pairs * r / ranks;
    const u128 end = total_pairs * (r + 1) / ranks;
    EXPECT_FALSE(result.shards[r].empty()) << "rank " << r;
    for (const auto& e : result.shards[r]) {
      const u128 idx = static_cast<u128>(e.u) * (e.u - 1) / 2 + e.v;
      ASSERT_TRUE(idx >= begin && idx < end) << "rank " << r;
      largest = std::max(largest, e.u);
    }
  }
  EXPECT_GT(static_cast<double>(largest), 0.99 * static_cast<double>(cfg.n));
  const double expected = cfg.p * static_cast<double>(total_pairs);
  EXPECT_NEAR(static_cast<double>(result.total_edges), expected,
              5 * std::sqrt(expected));
}

TEST(ParallelEr, RejectsMoreThanTwoToThe32Nodes) {
  // Above n = 2^32, n(n - 1) no longer fits in 64 bits.
  EXPECT_THROW((void)generate_er({.n = (NodeId{1} << 32) + 1, .p = 0.0}, 1),
               CheckError);
}

TEST(ParallelEr, GatherCanBeDisabled) {
  const auto result = generate_er({.n = 500, .p = 0.05, .seed = 3}, 4, false);
  EXPECT_TRUE(result.edges.empty());
  EXPECT_GT(result.total_edges, 0u);
  EXPECT_EQ(result.shards.size(), 4u);
}

TEST(ParallelEr, DegreeDistributionIsHomogeneous) {
  const NodeId n = 4000;
  const double p = 0.005;
  const auto result = generate_er({.n = n, .p = p, .seed = 9}, 8);
  const auto deg = graph::degree_sequence(result.edges, n);
  double mean = 0;
  Count hub = 0;
  for (Count d : deg) {
    mean += static_cast<double>(d);
    hub = std::max(hub, d);
  }
  mean /= static_cast<double>(n);
  EXPECT_NEAR(mean, p * (n - 1), 0.6);
  EXPECT_LT(static_cast<double>(hub), mean + 8 * std::sqrt(mean));
}

}  // namespace
}  // namespace pagen::core
