// Algorithm 3.2: distributed-memory preferential attachment, x >= 2.
//
// Extends Algorithm 3.1 with x edges per node, an initial x-clique, and
// duplicate-edge avoidance: a duplicate discovered on the direct path
// retries with a fresh (k, coin) (paper Lines 9-10); a duplicate discovered
// when a <resolved> arrives re-draws (k, l) and stays on the copy path
// (Lines 26-29).  Each rank maintains x wait-queues per owned node
// (Q_{k,l}) and the same buffering/termination machinery as the x = 1 case.
//
// The duplicate-retry decisions depend on the order in which a node's edges
// resolve, so — exactly as in the paper — the emitted edge set for x > 1 is
// scheduling-dependent; the distribution and all structural invariants
// (simple graph, exact edge count, connectivity) are preserved and tested.
#pragma once

#include "baseline/pa_config.h"
#include "core/parallel_pa.h"

namespace pagen::core {

/// Run Algorithm 3.2. Requires config.n > config.x >= 2; x == 1 is
/// Algorithm 3.1 (generate_pa_x1, or core::generate, which routes by x).
/// ParallelResult::targets stays empty (rows are per-edge; use `edges`).
[[nodiscard]] ParallelResult generate_pa_general(const PaConfig& config,
                                                 const ParallelOptions& options);

}  // namespace pagen::core
