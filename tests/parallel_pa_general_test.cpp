// Invariant suite for Algorithm 3.2 (x >= 1): the structural invariants and
// distributional properties of the output. Bitwise equality with the
// sequential run is pinned by genrt_golden_test and engine_equivalence_test.
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

TEST(ParallelPaGeneralDist, MatchesSequentialModel) {
  // Every draw is pure in (t, e, attempt) and a rank commits each node's
  // slots in order, so one rank and six agree bitwise with the sequential
  // general model.
  struct Case {
    PaConfig cfg;
    int ranks;
    Scheme scheme;
  };
  for (const Case& c :
       {Case{{.n = 4000, .x = 5, .p = 0.5, .seed = 11}, 1, Scheme::kRrp},
        Case{{.n = 8000, .x = 4, .p = 0.5, .seed = 17}, 6, Scheme::kUcp}}) {
    ParallelOptions opt;
    opt.ranks = c.ranks;
    opt.scheme = c.scheme;
    auto par = core::generate(c.cfg, opt).edges;
    auto seq = baseline::copy_model_general(c.cfg).edges;
    graph::normalize(par);
    graph::normalize(seq);
    EXPECT_EQ(par, seq) << "P=" << c.ranks;
  }
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

TEST(ParallelPaGeneralDist, RejectsBadConfigs) {
  ParallelOptions opt;
  opt.ranks = 2;
  EXPECT_THROW(core::generate({.n = 4, .x = 4, .p = 0.5, .seed = 1}, opt),
               CheckError);
}

}  // namespace
}  // namespace pagen::core
