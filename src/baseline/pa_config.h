// Configuration shared by all preferential-attachment generators.
#pragma once

#include <cstdint>

#include "util/error.h"
#include "util/types.h"

namespace pagen {

/// Parameters of one preferential-attachment generation run. Used by the
/// sequential baselines and the parallel algorithms alike, so experiments
/// compare the same workload across implementations.
struct PaConfig {
  /// Total number of nodes, labeled 0..n-1.
  NodeId n = 1000;

  /// Edges contributed by each new node (the paper's x). x = 1 produces a
  /// random tree; x >= 2 starts from an x-clique and yields a connected
  /// simple graph with binom(x,2) + (n - x) * x edges.
  NodeId x = 1;

  /// Copy-model probability of taking the directly selected node. p = 0.5
  /// reproduces the Barabási–Albert process exactly (Section 3.1).
  double p = 0.5;

  /// Seed for the counter-based RNG. Runs with equal seeds produce equal
  /// graphs for x = 1 regardless of rank count or partitioning scheme.
  std::uint64_t seed = 1;
};

/// The domain Algorithms 3.1-3.2 are defined on (DESIGN.md §1): x >= 1,
/// n > x, p in [0, 1] (NaN fails), and p < 1 once x >= 2 — at p = 1 node
/// x+1's only candidate is node x, so its x distinct endpoints cannot
/// exist. Throws CheckError naming the violated condition.
inline void check_pa_config(const PaConfig& c) {
  PAGEN_CHECK_MSG(c.x >= 1, "x must be >= 1 (got x = " << c.x << ")");
  PAGEN_CHECK_MSG(c.n > c.x,
                  "need n > x (got n = " << c.n << ", x = " << c.x << ")");
  PAGEN_CHECK_MSG(c.p >= 0.0 && c.p <= 1.0,
                  "p must be in [0, 1] (got p = " << c.p << ")");
  PAGEN_CHECK_MSG(c.x == 1 || c.p < 1.0, "p must be below 1 for x > 1");
}

/// Total edges the generators emit for a config: an x-clique plus x edges
/// per subsequent node (for x = 1: the single bootstrap edge (1,0) plus one
/// edge per node t >= 2, i.e. n - 1 in total).
[[nodiscard]] constexpr Count expected_edge_count(const PaConfig& c) {
  if (c.x == 1) return c.n >= 2 ? c.n - 1 : 0;
  const Count clique = c.x * (c.x - 1) / 2;
  return clique + (c.n - c.x) * c.x;
}

}  // namespace pagen
