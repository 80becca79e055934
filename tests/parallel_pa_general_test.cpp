// Invariant suite for Algorithm 3.2 (x >= 1): for x > 1 the duplicate-retry
// decisions are resolution-order dependent (as in the paper), so these tests
// assert the structural invariants and distributional properties rather than
// bitwise equality with the sequential run.
#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "baseline/copy_model_seq.h"
#include "core/generate.h"
#include "graph/edge_list.h"
#include "util/error.h"

namespace pagen::core {
namespace {

using partition::Scheme;

using Param = std::tuple<Scheme, int, NodeId>;

std::string param_name(const ::testing::TestParamInfo<Param>& param_info) {
  return partition::to_string(std::get<0>(param_info.param)) + "_P" +
         std::to_string(std::get<1>(param_info.param)) + "_x" +
         std::to_string(std::get<2>(param_info.param));
}

class ParallelPaGeneral : public ::testing::TestWithParam<Param> {};

TEST_P(ParallelPaGeneral, SimpleGraphWithExactEdgeCount) {
  const auto [scheme, ranks, x] = GetParam();
  const PaConfig cfg{.n = 6000, .x = x, .p = 0.5, .seed = 29};
  ParallelOptions opt;
  opt.scheme = scheme;
  opt.ranks = ranks;
  const auto result = core::generate(cfg, opt);

  EXPECT_EQ(result.edges.size(), expected_edge_count(cfg));
  EXPECT_EQ(result.total_edges, expected_edge_count(cfg));
  EXPECT_EQ(graph::count_self_loops(result.edges), 0u);
  EXPECT_EQ(graph::count_duplicates(result.edges), 0u);
  EXPECT_EQ(graph::connected_components(result.edges, cfg.n), 1u);
}

TEST_P(ParallelPaGeneral, NewEndpointsPrecedeTheirNode) {
  const auto [scheme, ranks, x] = GetParam();
  const PaConfig cfg{.n = 3000, .x = x, .p = 0.5, .seed = 31};
  ParallelOptions opt;
  opt.scheme = scheme;
  opt.ranks = ranks;
  const auto result = core::generate(cfg, opt);
  for (const auto& e : result.edges) {
    EXPECT_LT(e.v, e.u) << "generators emit (new node, older endpoint)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelPaGeneral,
    ::testing::Combine(::testing::Values(Scheme::kUcp, Scheme::kLcp,
                                         Scheme::kRrp),
                       ::testing::Values(1, 4, 13),
                       ::testing::Values<NodeId>(2, 4, 8)),
    param_name);

TEST(ParallelPaGeneralDist, MinimumDegreeIsX) {
  const PaConfig cfg{.n = 5000, .x = 4, .p = 0.5, .seed = 7};
  ParallelOptions opt;
  opt.ranks = 8;
  const auto result = core::generate(cfg, opt);
  const auto deg = graph::degree_sequence(result.edges, cfg.n);
  EXPECT_GE(*std::min_element(deg.begin(), deg.end()), cfg.x);
}

TEST(ParallelPaGeneralDist, SingleRankMatchesSequentialModel) {
  // With one rank every edge resolves in label order — identical semantics
  // to the sequential general model, so the outputs agree bitwise.
  const PaConfig cfg{.n = 4000, .x = 5, .p = 0.5, .seed = 11};
  ParallelOptions opt;
  opt.ranks = 1;
  const auto par = core::generate(cfg, opt);
  const auto seq = baseline::copy_model_general(cfg);
  auto a = par.edges;
  auto b = seq.edges;
  graph::normalize(a);
  graph::normalize(b);
  EXPECT_EQ(a, b);
}

TEST(ParallelPaGeneralDist, HubDegreesTrackSequentialRun) {
  // Parallel and sequential runs sample the same distribution: the max
  // degree (hub) should agree within statistical noise across seeds.
  double hub_par = 0, hub_seq = 0;
  const int runs = 12;
  for (int r = 0; r < runs; ++r) {
    const PaConfig cfg{.n = 4000, .x = 3, .p = 0.5,
                       .seed = static_cast<std::uint64_t>(100 + r)};
    ParallelOptions opt;
    opt.ranks = 6;
    opt.scheme = Scheme::kRrp;
    const auto par = core::generate(cfg, opt);
    const auto seq = baseline::copy_model_general(cfg);
    const auto dp = graph::degree_sequence(par.edges, cfg.n);
    const auto ds = graph::degree_sequence(seq.edges, cfg.n);
    hub_par += static_cast<double>(*std::max_element(dp.begin(), dp.end()));
    hub_seq += static_cast<double>(*std::max_element(ds.begin(), ds.end()));
  }
  EXPECT_NEAR(hub_par / hub_seq, 1.0, 0.2);
}

TEST(ParallelPaGeneralDist, RetriesAreCountedAndBounded) {
  const PaConfig cfg{.n = 20000, .x = 8, .p = 0.5, .seed = 3};
  ParallelOptions opt;
  opt.ranks = 8;
  const auto result = core::generate(cfg, opt);
  Count retries = 0;
  for (const auto& l : result.loads) retries += l.retries;
  EXPECT_GT(retries, 0u) << "x = 8 at n = 20k must hit duplicates";
  EXPECT_LT(retries, result.total_edges / 5);
}

TEST(ParallelPaGeneralDist, DenseSmallNetworkStillSimple) {
  // n close to x forces heavy duplicate pressure near the clique.
  const PaConfig cfg{.n = 40, .x = 16, .p = 0.5, .seed = 5};
  ParallelOptions opt;
  opt.ranks = 5;
  const auto result = core::generate(cfg, opt);
  EXPECT_EQ(result.edges.size(), expected_edge_count(cfg));
  EXPECT_EQ(graph::count_duplicates(result.edges), 0u);
  EXPECT_EQ(graph::count_self_loops(result.edges), 0u);
}

TEST(ParallelPaGeneralDist, DivergenceFromSequentialIsOnlyRetryDeep) {
  // All draws are counter-based, so the parallel run can only differ from
  // the sequential run where a duplicate retry fired in a different order
  // (rare). The symmetric difference of the two edge multisets must stay a
  // small fraction of the graph.
  const PaConfig cfg{.n = 8000, .x = 4, .p = 0.5, .seed = 17};
  ParallelOptions opt;
  opt.ranks = 6;
  opt.scheme = Scheme::kUcp;
  auto par = core::generate(cfg, opt).edges;
  auto seq = baseline::copy_model_general(cfg).edges;
  graph::normalize(par);
  graph::normalize(seq);
  ASSERT_EQ(par.size(), seq.size());
  std::size_t differing = 0;
  std::size_t i = 0, j = 0;
  while (i < par.size() && j < seq.size()) {
    const auto& a = par[i];
    const auto& b = seq[j];
    if (a == b) {
      ++i;
      ++j;
    } else if (std::tie(a.u, a.v) < std::tie(b.u, b.v)) {
      ++differing;
      ++i;
    } else {
      ++differing;
      ++j;
    }
  }
  differing += (par.size() - i) + (seq.size() - j);
  EXPECT_LT(differing, par.size() / 20)
      << "more than 5% divergence cannot be explained by retry reordering";
}

TEST(ParallelPaGeneralDist, RejectsBadConfigs) {
  ParallelOptions opt;
  opt.ranks = 2;
  EXPECT_THROW(core::generate({.n = 4, .x = 4, .p = 0.5, .seed = 1}, opt),
               CheckError);
}

}  // namespace
}  // namespace pagen::core
