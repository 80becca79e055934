#include "core/distributed_degree.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/degree_dist.h"
#include "core/generate.h"
#include "graph/edge_list.h"
#include "graph/edge_source.h"
#include "util/error.h"

namespace pagen::core {
namespace {

using partition::Scheme;

// Reference: centralized degree distribution of the gathered edges.
DegreeHistogram reference_histogram(const graph::EdgeList& edges, NodeId n) {
  const auto deg = graph::degree_sequence(edges, n);
  const auto dist = analysis::degree_distribution(deg);
  DegreeHistogram out;
  for (const auto& p : dist) out.emplace_back(p.degree, p.count);
  return out;
}

class DistributedDegree : public ::testing::TestWithParam<Scheme> {};

TEST_P(DistributedDegree, MatchesCentralizedComputation) {
  const PaConfig cfg{.n = 20000, .x = 4, .p = 0.5, .seed = 77};
  ParallelOptions opt;
  opt.ranks = 8;
  opt.scheme = GetParam();
  opt.keep_shards = true;
  const auto result = generate(cfg, opt);
  ASSERT_EQ(result.shards.size(), 8u);

  const auto distributed =
      distributed_degree_distribution(result.shards, cfg.n, opt.scheme);
  EXPECT_EQ(distributed, reference_histogram(result.edges, cfg.n));
}

TEST_P(DistributedDegree, AnyEdgePlacementMatchesCentralized) {
  // No engine writes this layout: edges dealt round-robin to 4 shards, and
  // every other edge with its endpoints swapped, so a shard's rank need
  // own neither endpoint. The kernel routes both, so a shard may hold any
  // edges.
  const PaConfig cfg{.n = 20000, .x = 3, .p = 0.5, .seed = 41};
  ParallelOptions opt;
  opt.ranks = 1;
  const auto result = generate(cfg, opt);

  std::vector<graph::EdgeList> shards(4);
  for (std::size_t i = 0; i < result.edges.size(); ++i) {
    graph::Edge e = result.edges[i];
    if (i % 2 == 1) std::swap(e.u, e.v);
    shards[i % 4].push_back(e);
  }
  EXPECT_EQ(distributed_degree_distribution(shards, cfg.n, GetParam()),
            reference_histogram(result.edges, cfg.n));
}

INSTANTIATE_TEST_SUITE_P(Schemes, DistributedDegree,
                         ::testing::Values(Scheme::kUcp, Scheme::kLcp,
                                           Scheme::kRrp),
                         [](const ::testing::TestParamInfo<Scheme>& param_info) {
                           return partition::to_string(param_info.param);
                         });

TEST(DistributedDegreeBasic, SingleRankWorld) {
  const PaConfig cfg{.n = 1000, .x = 1, .p = 0.5, .seed = 3};
  ParallelOptions opt;
  opt.ranks = 1;
  opt.keep_shards = true;
  const auto result = generate(cfg, opt);
  const auto hist = distributed_degree_distribution(result.shards, cfg.n,
                                                    opt.scheme);
  EXPECT_EQ(hist, reference_histogram(result.edges, cfg.n));
}

TEST(DistributedDegreeBasic, TotalNodesAccountedFor) {
  const PaConfig cfg{.n = 30000, .x = 2, .p = 0.5, .seed = 5};
  ParallelOptions opt;
  opt.ranks = 16;
  opt.scheme = Scheme::kRrp;
  opt.keep_shards = true;
  opt.gather_edges = false;  // the point: no central edge list needed
  const auto result = generate(cfg, opt);
  const auto hist = distributed_degree_distribution(result.shards, cfg.n,
                                                    opt.scheme);
  Count nodes = 0;
  Count degree_mass = 0;
  for (const auto& [degree, count] : hist) {
    nodes += count;
    degree_mass += degree * count;
  }
  EXPECT_EQ(nodes, cfg.n);
  EXPECT_EQ(degree_mass, 2 * result.total_edges);
}

TEST(DistributedDegreeBasic, KeepShardsWithGatherAgrees) {
  const PaConfig cfg{.n = 5000, .x = 3, .p = 0.5, .seed = 9};
  ParallelOptions opt;
  opt.ranks = 5;
  opt.keep_shards = true;
  const auto result = generate(cfg, opt);
  Count shard_total = 0;
  for (const auto& shard : result.shards) shard_total += shard.size();
  EXPECT_EQ(shard_total, result.edges.size())
      << "shards and gathered list must describe the same edges";
}

TEST(DistributedDegreeBasic, StarAboveTheFlatFoldCap) {
  // p = 0, x = 1 is a star at node 0: one degree of n - 1, above the flat
  // fold's 2^16 cap, so the side list carries it, at P = 1 and at P = 4.
  const PaConfig cfg{.n = 70000, .x = 1, .p = 0.0, .seed = 11};
  ParallelOptions opt;
  opt.ranks = 4;
  opt.engine = "commfree";
  opt.scheme = Scheme::kRrp;
  opt.keep_shards = true;
  const auto result = generate(cfg, opt);
  const DegreeHistogram star{{1, cfg.n - 1}, {cfg.n - 1, 1}};
  ASSERT_EQ(reference_histogram(result.edges, cfg.n), star);
  EXPECT_EQ(distributed_degree_distribution(result.shards, cfg.n, opt.scheme),
            star);
  EXPECT_EQ(distributed_degree_distribution({result.edges}, cfg.n,
                                            opt.scheme),
            star);
}

TEST(DistributedDegreeBasic, EndpointOutsideTheNodeRangeRejected) {
  // An endpoint equal to num_nodes must raise, whether the kernel routes
  // it to an owner (P = 4) or counts it in place (P = 1).
  const NodeId n = 10;
  const std::vector<graph::EdgeList> one{{{1, 0}, {2, 1}, {3, n}}};
  EXPECT_THROW((void)distributed_degree_distribution(
                   graph::make_edge_source(n, one), Scheme::kRrp),
               CheckError);
  const std::vector<graph::EdgeList> four{
      {{4, 0}}, {{1, 0}, {5, n}}, {{2, 1}}, {{3, 2}}};
  EXPECT_THROW((void)distributed_degree_distribution(
                   graph::make_edge_source(n, four), Scheme::kRrp),
               CheckError);
}

TEST(DistributedDegreeBasic, CounterWidthRuleSwitchesAtTwoToThe32Endpoints) {
  // 2m is even, so 2^32 - 2 is the largest endpoint total below 2^32.
  constexpr Count kHalf = Count{1} << 31;
  static_assert(degree_counts_fit_u32(kHalf - 1));  // 2m = 2^32 - 2
  static_assert(!degree_counts_fit_u32(kHalf));     // 2m = 2^32
  EXPECT_TRUE(degree_counts_fit_u32(0));
  EXPECT_TRUE(degree_counts_fit_u32(1'000'000'000));  // the paper's 10^9
  EXPECT_TRUE(degree_counts_fit_u32(kHalf - 1));
  EXPECT_FALSE(degree_counts_fit_u32(kHalf));
}

TEST(DistributedDegreeBasic, SourceStreamingMoreThanItDeclaresRejected) {
  // Counters are sized from the declared total, so a source that streams
  // more edges than it declares must raise, whether the kernel counts in
  // place (P = 1) or routes endpoints to owners (P = 4).
  const NodeId n = 10;
  const std::vector<graph::EdgeList> one{{{1, 0}, {2, 1}, {3, 2}}};
  const std::vector<graph::EdgeList> four{
      {{4, 0}}, {{1, 0}, {5, 4}}, {{2, 1}}, {{3, 2}}};
  for (const auto* shards : {&one, &four}) {
    graph::EdgeSource source = graph::make_edge_source(n, *shards);
    ASSERT_NO_THROW((void)distributed_degree_distribution(source,
                                                          Scheme::kRrp));
    source.num_edges -= 1;
    EXPECT_THROW((void)distributed_degree_distribution(source, Scheme::kRrp),
                 CheckError)
        << shards->size() << " shards";
  }
}

TEST(DistributedDegreeBasic, U64CountersMatchU32Counters) {
  // A source may declare more edges than it streams; declaring 2^31 puts
  // the kernel on u64 counters, which must fold the same histogram as the
  // u32 counters of the exact declaration, at P = 1 and at P = 4.
  const PaConfig cfg{.n = 5000, .x = 3, .p = 0.5, .seed = 23};
  ParallelOptions opt;
  opt.ranks = 4;
  opt.keep_shards = true;
  const auto result = generate(cfg, opt);
  const DegreeHistogram want = reference_histogram(result.edges, cfg.n);
  const std::vector<graph::EdgeList> one{result.edges};
  for (const auto* shards : {&result.shards, &one}) {
    graph::EdgeSource source = graph::make_edge_source(cfg.n, *shards);
    ASSERT_TRUE(degree_counts_fit_u32(source.num_edges));
    EXPECT_EQ(distributed_degree_distribution(source, Scheme::kRrp), want);
    source.num_edges = Count{1} << 31;
    ASSERT_FALSE(degree_counts_fit_u32(source.num_edges));
    EXPECT_EQ(distributed_degree_distribution(source, Scheme::kRrp), want)
        << shards->size() << " shards";
  }
}

}  // namespace
}  // namespace pagen::core
