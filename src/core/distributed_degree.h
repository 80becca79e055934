// Distributed degree-distribution computation over per-rank edge shards.
//
// The paper (Section 3.2): "Some network analysts may prefer to generate
// networks on the fly and analyze it without performing disk I/O."  This
// pass does exactly that for the first statistic anyone computes: each rank
// owns the degree counters of its own nodes; endpoints owned elsewhere are
// shipped as batched increment messages; the per-rank degree tables are
// folded into local (degree -> node count) histograms and allgathered.
//
// Message complexity: one increment per cross-rank endpoint, batched by
// SendBuffer. Exchange is bulk-synchronous: flush, barrier, drain — valid
// because the runtime's send enqueues synchronously (the MPI analogue
// would be an MPI_Alltoallv).
//
// A one-shard source (e.g. ShardedGraphView::merged_edge_source()) needs no
// partition: its one rank owns every node, so the kernel counts endpoints
// in place on the caller's thread, with no rank world and no messages.
// Degrees fold into a flat counts-by-degree table for every P; the rare
// degrees above the table's fixed cap go to a side list sorted at the end,
// so a star stays bounded.
//
// Memory: one counter per node, 4 bytes whenever the source's edge total m
// has 2m < 2^32 (degree_counts_fit_u32) and 8 bytes beyond that. The
// kernel takes m from the source (EdgeSource::num_edges) and checks the
// edges it visits against it, so a source that streams more than it
// declares fails with a CheckError before any counter can wrap.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/edge_list.h"
#include "graph/edge_source.h"
#include "partition/partition.h"
#include "util/types.h"

namespace pagen::core {

/// (degree, number of nodes with that degree), ascending by degree — the
/// same data Fig. 4 plots, computed without ever gathering the edges.
using DegreeHistogram = std::vector<std::pair<Count, Count>>;

/// Whether the kernel counts degrees in u32 for a source of `edges` edges:
/// a degree is at most the endpoint total 2 * edges (a self-loop counts
/// twice), and u32 holds every value below 2^32.
[[nodiscard]] constexpr bool degree_counts_fit_u32(Count edges) {
  return edges <= std::numeric_limits<std::uint32_t>::max() / 2;
}

/// Compute the exact degree distribution of the union of `shards` over
/// nodes [0, n). Rank r of a world of P = shards.size() ranks reads
/// shards[r] and sends each endpoint it does not own under `scheme` to its
/// owner, so a shard may hold any edges; ParallelOptions::keep_shards
/// shards, whose newer endpoints are local, send only the older ones.
[[nodiscard]] DegreeHistogram distributed_degree_distribution(
    const std::vector<graph::EdgeList>& shards, NodeId n,
    partition::Scheme scheme);

/// Streaming variant: same computation over any EdgeSource — in-memory
/// shards or a compressed on-disk store (store::ShardedGraphView) — without
/// ever materializing a shard. One pass per shard. Throws CheckError when
/// an endpoint lies outside [0, source.num_nodes), or when the shards
/// stream more than source.num_edges edges in total.
[[nodiscard]] DegreeHistogram distributed_degree_distribution(
    const graph::EdgeSource& source, partition::Scheme scheme);

}  // namespace pagen::core
