// Exactness suite for Algorithm 3.1 (x = 1): the distributed generator must
// reproduce the sequential copy model bitwise for every partitioning scheme,
// rank count, p, and buffering configuration.
#include <tuple>

#include <gtest/gtest.h>

#include "baseline/copy_model_seq.h"
#include "core/generate.h"
#include "graph/edge_list.h"
#include "util/error.h"

namespace pagen::core {
namespace {

using partition::Scheme;

PaConfig base_config() { return {.n = 20000, .x = 1, .p = 0.5, .seed = 42}; }

using Param = std::tuple<Scheme, int>;

std::string param_name(const ::testing::TestParamInfo<Param>& param_info) {
  return partition::to_string(std::get<0>(param_info.param)) + "_P" +
         std::to_string(std::get<1>(param_info.param));
}

class ParallelPaExactness : public ::testing::TestWithParam<Param> {};

TEST_P(ParallelPaExactness, BitwiseMatchesSequentialCopyModel) {
  const PaConfig cfg = base_config();
  ParallelOptions opt;
  opt.scheme = std::get<0>(GetParam());
  opt.ranks = std::get<1>(GetParam());
  const auto result = core::generate(cfg, opt);
  EXPECT_EQ(result.targets, baseline::copy_model_targets(cfg));
  EXPECT_EQ(result.total_edges, cfg.n - 1);
}

TEST_P(ParallelPaExactness, LoadCountersAreConsistent) {
  const PaConfig cfg = base_config();
  ParallelOptions opt;
  opt.scheme = std::get<0>(GetParam());
  opt.ranks = std::get<1>(GetParam());
  opt.gather_edges = false;
  const auto result = core::generate(cfg, opt);

  Count nodes = 0, req_out = 0, req_in = 0, res_out = 0, res_in = 0;
  for (const auto& l : result.loads) {
    nodes += l.nodes;
    req_out += l.requests_sent;
    req_in += l.requests_received;
    res_out += l.resolved_sent;
    res_in += l.resolved_received;
  }
  EXPECT_EQ(nodes, cfg.n);
  EXPECT_EQ(req_out, req_in) << "requests conserve";
  EXPECT_EQ(res_out, res_in) << "responses conserve";
  EXPECT_EQ(req_out, res_out) << "one response per request (x = 1)";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelPaExactness,
    ::testing::Combine(::testing::Values(Scheme::kUcp, Scheme::kLcp,
                                         Scheme::kRrp),
                       ::testing::Values(1, 2, 5, 16, 37)),
    param_name);

TEST(ParallelPa, IndependentOfBufferCapacity) {
  const PaConfig cfg = base_config();
  const auto reference = baseline::copy_model_targets(cfg);
  for (std::size_t capacity : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    ParallelOptions opt;
    opt.ranks = 6;
    opt.scheme = Scheme::kRrp;
    opt.buffer_capacity = capacity;
    EXPECT_EQ(core::generate(cfg, opt).targets, reference)
        << "capacity=" << capacity;
  }
}

TEST(ParallelPa, IndependentOfNodeBatch) {
  const PaConfig cfg = base_config();
  const auto reference = baseline::copy_model_targets(cfg);
  for (std::size_t batch : {std::size_t{1}, std::size_t{64}, std::size_t{100000}}) {
    ParallelOptions opt;
    opt.ranks = 4;
    opt.scheme = Scheme::kUcp;
    opt.node_batch = batch;
    EXPECT_EQ(core::generate(cfg, opt).targets, reference)
        << "batch=" << batch;
  }
}

TEST(ParallelPa, ConsecutiveSchemesWorkWithoutForcedFlush) {
  // The paper: CP schemes cannot deadlock even without the special resolved
  // flush rule, because rank i only ever waits on lower ranks.
  const PaConfig cfg = base_config();
  for (Scheme scheme : {Scheme::kUcp, Scheme::kLcp}) {
    ParallelOptions opt;
    opt.ranks = 8;
    opt.scheme = scheme;
    opt.flush_resolved_after_batch = false;
    EXPECT_EQ(core::generate(cfg, opt).targets,
              baseline::copy_model_targets(cfg))
        << partition::to_string(scheme);
  }
}

TEST(ParallelPa, SweepOverP) {
  // Exactness across the copy probability (the gamma knob of the model).
  for (double p : {0.1, 0.5, 0.9}) {
    PaConfig cfg = base_config();
    cfg.p = p;
    cfg.n = 5000;
    ParallelOptions opt;
    opt.ranks = 7;
    opt.scheme = Scheme::kRrp;
    EXPECT_EQ(core::generate(cfg, opt).targets,
              baseline::copy_model_targets(cfg))
        << "p=" << p;
  }
}

TEST(ParallelPa, EdgesMatchTargets) {
  const PaConfig cfg{.n = 3000, .x = 1, .p = 0.5, .seed = 6};
  ParallelOptions opt;
  opt.ranks = 5;
  const auto result = core::generate(cfg, opt);
  ASSERT_EQ(result.edges.size(), cfg.n - 1);
  for (const auto& e : result.edges) {
    EXPECT_EQ(result.targets[e.u], e.v) << "edge (t, F_t) mismatch";
  }
}

TEST(ParallelPa, GatherCanBeDisabled) {
  const PaConfig cfg{.n = 4000, .x = 1, .p = 0.5, .seed = 2};
  ParallelOptions opt;
  opt.ranks = 4;
  opt.gather_edges = false;
  const auto result = core::generate(cfg, opt);
  EXPECT_TRUE(result.edges.empty());
  EXPECT_TRUE(result.targets.empty());
  EXPECT_EQ(result.total_edges, cfg.n - 1);
}

TEST(ParallelPa, TinyWorldSizes) {
  // n barely above the rank count stresses boundary partitions.
  const PaConfig cfg{.n = 17, .x = 1, .p = 0.5, .seed = 3};
  for (int ranks : {1, 2, 16, 17}) {
    ParallelOptions opt;
    opt.ranks = ranks;
    opt.scheme = Scheme::kRrp;
    EXPECT_EQ(core::generate(cfg, opt).targets,
              baseline::copy_model_targets(cfg))
        << "ranks=" << ranks;
  }
}

TEST(ParallelPa, RejectsBadConfigs) {
  ParallelOptions opt;
  opt.ranks = 4;
  EXPECT_THROW(core::generate({.n = 2, .x = 1, .p = 0.5, .seed = 1}, opt),
               CheckError);
}

TEST(ParallelPa, ManyRanksOversubscribed) {
  // Mirrors the paper's P = 160 experiments on one machine.
  const PaConfig cfg{.n = 50000, .x = 1, .p = 0.5, .seed = 12};
  ParallelOptions opt;
  opt.ranks = 96;
  opt.scheme = Scheme::kRrp;
  opt.gather_edges = false;
  const auto result = core::generate(cfg, opt);
  EXPECT_EQ(result.total_edges, cfg.n - 1);
  EXPECT_EQ(result.loads.size(), 96u);
}

}  // namespace
}  // namespace pagen::core
