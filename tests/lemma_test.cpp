// Empirical validation of Lemma 3.4: the expected number of request
// messages received for node k is (1-p) (H_{n-1} - H_k), and of the
// aggregate message identities that follow from it.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/pa_config.h"
#include "baseline/pa_draws.h"
#include "core/generate.h"
#include "util/harmonic.h"

namespace pagen {
namespace {

// Count, per node k, how many nodes t > k picked k with the copy branch —
// that is the number of <request>s addressed to k if t and k were always on
// different ranks. Evaluated straight from the draw schema.
std::vector<Count> copy_requests_per_node(const PaConfig& cfg) {
  const DrawSchema draws(cfg);
  std::vector<Count> req(cfg.n, 0);
  for (NodeId t = 2; t < cfg.n; ++t) {
    const NodeId k = draws.pick_k(t, 0, 0);
    if (!draws.pick_direct(t, 0, 0)) ++req[k];
  }
  return req;
}

TEST(Lemma34, ExpectedRequestsMatchHarmonicFormula) {
  // Average the per-node request count over many seeds and compare with
  // (1-p)(H_{n-1} - H_k) at several probe nodes.
  const NodeId n = 2000;
  const double p = 0.5;
  const int runs = 400;
  std::vector<double> mean(n, 0.0);
  for (int r = 0; r < runs; ++r) {
    const PaConfig cfg{.n = n, .x = 1, .p = p,
                       .seed = static_cast<std::uint64_t>(r + 1)};
    const auto req = copy_requests_per_node(cfg);
    for (NodeId k = 0; k < n; ++k) mean[k] += static_cast<double>(req[k]);
  }
  const Harmonic h(4096);
  for (NodeId k : {NodeId{1}, NodeId{10}, NodeId{100}, NodeId{1000}}) {
    const double est = mean[k] / runs;
    const double expected = (1.0 - p) * (h(n - 1) - h(k));
    const double sigma = std::sqrt(expected / runs) + 0.02;
    EXPECT_NEAR(est, expected, 5 * sigma) << "node k=" << k;
  }
}

TEST(Lemma34, LowerLabelsReceiveMore) {
  // E[M_j] > E[M_k] for j < k — the monotonicity driving UCP's imbalance.
  const NodeId n = 5000;
  const int runs = 200;
  std::vector<double> mean(n, 0.0);
  for (int r = 0; r < runs; ++r) {
    const PaConfig cfg{.n = n, .x = 1, .p = 0.5,
                       .seed = static_cast<std::uint64_t>(900 + r)};
    const auto req = copy_requests_per_node(cfg);
    for (NodeId k = 0; k < n; ++k) mean[k] += static_cast<double>(req[k]);
  }
  // Compare decade buckets rather than single nodes to kill noise.
  auto bucket = [&](NodeId lo, NodeId hi) {
    double acc = 0;
    for (NodeId k = lo; k < hi; ++k) acc += mean[k];
    return acc / static_cast<double>(hi - lo);
  };
  EXPECT_GT(bucket(1, 10), bucket(10, 100));
  EXPECT_GT(bucket(10, 100), bucket(100, 1000));
  EXPECT_GT(bucket(100, 1000), bucket(1000, 5000));
}

TEST(Lemma34, TotalCopySelectionsMatchOneMinusP) {
  // Summing the lemma over all k: total requests ≈ (1-p)(n-2) — each node
  // t >= 2 requests with probability exactly 1-p.
  const NodeId n = 20000;
  for (double p : {0.25, 0.5, 0.75}) {
    const PaConfig cfg{.n = n, .x = 1, .p = p, .seed = 77};
    const auto req = copy_requests_per_node(cfg);
    Count total = 0;
    for (Count c : req) total += c;
    const double expected = (1.0 - p) * static_cast<double>(n - 2);
    EXPECT_NEAR(static_cast<double>(total), expected,
                5 * std::sqrt(expected))
        << "p=" << p;
  }
}

TEST(Lemma34, ParallelRunMessageCountsAgree) {
  // The distributed run's aggregate request count equals the schema's copy
  // selections that cross rank boundaries — i.e. the run sends exactly the
  // messages the lemma accounts for, never more.
  const PaConfig cfg{.n = 30000, .x = 1, .p = 0.5, .seed = 13};
  core::ParallelOptions opt;
  opt.ranks = 8;
  opt.scheme = partition::Scheme::kRrp;
  opt.gather_edges = false;
  const auto result = core::generate(cfg, opt);

  Count total_requests = 0;
  Count total_resolved = 0;
  Count total_received = 0;
  for (const auto& l : result.loads) {
    total_requests += l.requests_sent;
    total_received += l.requests_received;
    total_resolved += l.resolved_received;
  }
  EXPECT_EQ(total_requests, total_received) << "no request may be lost";
  EXPECT_EQ(total_requests, total_resolved)
      << "every request gets exactly one response (x = 1: no retries)";

  // Cross-rank copy selections computed independently from the schema.
  const auto part = partition::make_partition(opt.scheme, cfg.n, opt.ranks);
  const DrawSchema draws(cfg);
  Count expected_requests = 0;
  for (NodeId t = 2; t < cfg.n; ++t) {
    const NodeId k = draws.pick_k(t, 0, 0);
    if (!draws.pick_direct(t, 0, 0) && part->owner(k) != part->owner(t)) {
      ++expected_requests;
    }
  }
  EXPECT_EQ(total_requests, expected_requests);
}

}  // namespace
}  // namespace pagen
