// Analytic parallel-time model driven by measured per-rank loads.
//
// Ranks are threads of one process, so wall-clock speedup stops at the
// host's core count: P ranks beyond it share cores, and the paper's P up to
// 768 is out of reach. The paper's own analysis (Section 3.5)
// measures load as nodes + messages per rank; we model the parallel time of
// a run as the most loaded rank's work plus a logarithmic collective term:
//
//   T_P = max_i (c_node * nodes_i + c_msg * messages_i) + c_col * ceil(log2 P)
//
// with c_node calibrated from a real timed sequential run and c_msg
// expressed as a multiple of c_node (the paper's simplifying assumption i:
// "sending a message takes the same computation time as receiving").
// The strong/weak scaling benches (Figs. 5-6) report modeled speedups whose
// *shape* — LCP ≈ RRP > UCP, near-linear growth — is fully determined by the
// measured load distribution.
#pragma once

#include <span>

#include "core/load_stats.h"

namespace pagen::core {

struct CostModel {
  /// Seconds of compute per generated node (type A+B unit work).
  double sec_per_node = 1e-7;

  /// Seconds per algorithm-level message sent or received. The paper's
  /// analysis uses one unit per message vs. a constant b per node; the
  /// default keeps that 1:1 ratio.
  double sec_per_message = 1e-7;

  /// Seconds per collective hop; collectives cost ceil(log2 P) hops.
  double sec_per_collective_hop = 5e-6;
};

/// Calibrate from a measured sequential run: `seconds` wall-clock for a run
/// that produced `nodes` nodes. The message cost is msg_cost_ratio times the
/// node cost.
[[nodiscard]] CostModel calibrate_cost_model(double seconds, Count nodes,
                                             double msg_cost_ratio = 1.0);

/// Modeled parallel runtime of a run with the given per-rank loads.
[[nodiscard]] double modeled_parallel_seconds(const CostModel& model,
                                              std::span<const RankLoad> loads);

/// Modeled runtime of the same total work executed by a single rank, i.e.
/// the model's sequential reference (no messages are exchanged when P = 1).
[[nodiscard]] double modeled_sequential_seconds(const CostModel& model,
                                                std::span<const RankLoad> loads);

}  // namespace pagen::core
