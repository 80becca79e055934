#include "analysis/ensemble.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace pagen::analysis {
namespace {

TEST(Ensemble, CollectsOneEntryPerReplica) {
  const PaConfig cfg{.n = 4000, .x = 3, .p = 0.5, .seed = 100};
  core::ParallelOptions opt;
  opt.ranks = 4;
  const auto result = run_ensemble(cfg, opt, 5);
  ASSERT_EQ(result.replicas.size(), 5u);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(result.replicas[static_cast<std::size_t>(r)].seed,
              100u + static_cast<std::uint64_t>(r));
    EXPECT_EQ(result.replicas[static_cast<std::size_t>(r)].edges,
              expected_edge_count(cfg));
    EXPECT_EQ(result.replicas[static_cast<std::size_t>(r)].components, 1u);
  }
}

TEST(Ensemble, ReplicasActuallyDiffer) {
  const PaConfig cfg{.n = 4000, .x = 3, .p = 0.5, .seed = 7};
  core::ParallelOptions opt;
  opt.ranks = 4;
  const auto result = run_ensemble(cfg, opt, 4);
  // Hub degrees fluctuate across seeds; identical values would mean the
  // seeds are not being varied.
  EXPECT_GT(result.max_degree.stddev, 0.0);
}

TEST(Ensemble, SummariesAggregateReplicas) {
  const PaConfig cfg{.n = 20000, .x = 4, .p = 0.5, .seed = 50};
  core::ParallelOptions opt;
  opt.ranks = 6;
  const auto result = run_ensemble(cfg, opt, 6);
  EXPECT_EQ(result.gamma.count, 6u);
  EXPECT_NEAR(result.gamma.mean, 2.75, 0.3);
  EXPECT_LT(result.gamma.stddev, 0.2) << "exponent is stable across seeds";
  EXPECT_LT(result.assortativity.mean, 0.0) << "PA is disassortative";
}

TEST(Ensemble, DeterministicAcrossRuns) {
  // Each replica's graph is a pure function of its spec, for any rank count
  // and x, so its hubs repeat run to run.
  const PaConfig cfg{.n = 3000, .x = 1, .p = 0.5, .seed = 9};
  core::ParallelOptions opt;
  opt.ranks = 3;
  const auto a = run_ensemble(cfg, opt, 3);
  const auto b = run_ensemble(cfg, opt, 3);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(a.replicas[r].max_degree, b.replicas[r].max_degree);
  }
}

TEST(Ensemble, RejectsZeroReplicas) {
  const PaConfig cfg{.n = 100, .x = 1, .p = 0.5, .seed = 1};
  core::ParallelOptions opt;
  opt.ranks = 1;
  EXPECT_THROW(run_ensemble(cfg, opt, 0), CheckError);
}

}  // namespace
}  // namespace pagen::analysis
