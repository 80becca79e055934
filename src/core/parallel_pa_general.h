// Algorithm 3.2: distributed-memory preferential attachment, every x >= 1.
//
// Each new node makes x edges; nodes 0..x-1 form the initial clique, and
// duplicate edges are avoided: a duplicate discovered on the direct path
// retries with a fresh (k, coin) (paper Lines 9-10); a duplicate discovered
// when a <resolved> arrives re-draws (k, l) and stays on the copy path
// (Lines 26-29). Each rank keeps x wait-queues per owned node (Q_{k,l}),
// per-destination buffering and counting termination.
//
// At x = 1 the clique is node 0, the bootstrap row is F_1 = 0 and no
// duplicate can arise, so the run makes exactly Algorithm 3.1's draws: the
// tree is bitwise identical to baseline::copy_model_targets for every rank
// count, partitioning scheme and message timing.
//
// For x > 1 the duplicate-retry decisions depend on the order in which a
// node's edges resolve, so — exactly as in the paper — the emitted edge set
// is scheduling-dependent when P > 1; the distribution and all structural
// invariants (simple graph, exact edge count, connectivity) are preserved
// and tested.
#pragma once

#include "baseline/pa_config.h"
#include "core/parallel_pa.h"

namespace pagen::core {

/// Run Algorithm 3.2 on a request the mps engine accepts (check_request,
/// core/engine/engine.h; throws CheckError otherwise). ParallelResult::targets
/// is filled for x = 1 only (rows are per-edge; use `edges`).
[[nodiscard]] ParallelResult generate_pa_general(const PaConfig& config,
                                                 const ParallelOptions& options);

}  // namespace pagen::core
