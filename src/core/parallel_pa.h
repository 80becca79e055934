// ParallelResult: what core::generate returns for one (PaConfig,
// ParallelOptions) run, whichever engine ran it — the gathered edges, the
// x = 1 targets row, per-rank shards, load and transport counters, and the
// run's recovery and store figures.
#pragma once

#include <vector>

#include "baseline/pa_config.h"
#include "core/load_stats.h"
#include "core/options.h"
#include "graph/edge_list.h"
#include "mps/stats.h"
#include "util/types.h"

namespace pagen::core {

struct ParallelResult {
  /// All edges, gathered across ranks (empty when options.gather_edges is
  /// false). Order is rank-concatenation order; normalize before comparing.
  graph::EdgeList edges;

  /// F_t per node (x = 1 only; kNil for node 0). Empty when gather_edges is
  /// false.
  std::vector<NodeId> targets;

  /// Per-rank local edges (only when options.keep_shards). shards[r] holds
  /// the edges whose newer endpoint is owned by rank r.
  std::vector<graph::EdgeList> shards;

  /// Algorithm-level per-rank load counters (Fig. 7 metrics).
  LoadVector loads;

  /// Runtime-level per-rank envelope/byte counters.
  std::vector<mps::CommStats> comm_stats;

  /// Wall-clock of the whole world, plus the crashed world's before a
  /// relaunch (threads are oversubscribed on this machine; see
  /// scaling_model.h for modeled parallel time).
  double wall_seconds = 0.0;

  /// Total edges generated (valid even when not gathered).
  Count total_edges = 0;

  /// Relaunches after an injected crash (0 unless a crash plan fired and
  /// the run recovered; docs/robustness.md §3).
  Count respawns = 0;

  /// Slots restored from checkpoints across all ranks (0 on a cold start).
  /// Nonzero proves the run resumed prior progress instead of regenerating
  /// it — the service retry path (ParallelOptions::resume) surfaces this in
  /// the job's flight record.
  Count restored_slots = 0;

  /// Compressed bytes written to ParallelOptions::store_dir (0 when no
  /// store was requested). store_bytes / total_edges is the bytes-per-edge
  /// figure BENCH_massive.json tracks.
  std::uint64_t store_bytes = 0;
};

}  // namespace pagen::core
