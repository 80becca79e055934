// Streaming access to a sharded edge set.
//
// The distributed analysis kernels (core/distributed_*.h) make exactly one
// pass over each rank's shard to build their local state; nothing in them
// needs the shard materialized. EdgeSource captures that contract: a shard
// count, a node count, the edge total, and a visit function that streams
// one shard's edges through a callback in batches. In-memory shards adapt via
// make_edge_source; the compressed on-disk store serves the same interface
// block by block (store/graph_view.h), so a billion-edge graph feeds the
// kernels under a fixed memory budget.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "util/types.h"

namespace pagen::graph {

/// Receives consecutive runs of one shard's edges, in shard order.
using EdgeVisitor = std::function<void(std::span<const Edge>)>;

struct EdgeSource {
  NodeId num_nodes = 0;
  int num_shards = 0;
  /// Edges over all shards. The degree kernel sizes its counters from it
  /// and fails when the shards stream more.
  Count num_edges = 0;
  /// Stream shard `shard`'s edges through `visit`. Must be safe to call
  /// concurrently for *distinct* shards — the kernels call it from one rank
  /// thread per shard.
  std::function<void(int shard, const EdgeVisitor& visit)> visit_shard;
};

/// Adapt in-memory shards (non-owning: `shards` must outlive the source).
[[nodiscard]] inline EdgeSource make_edge_source(
    NodeId num_nodes, const std::vector<EdgeList>& shards) {
  EdgeSource source;
  source.num_nodes = num_nodes;
  source.num_shards = static_cast<int>(shards.size());
  for (const EdgeList& shard : shards) source.num_edges += shard.size();
  source.visit_shard = [&shards](int shard, const EdgeVisitor& visit) {
    visit(shards[static_cast<std::size_t>(shard)]);
  };
  return source;
}

}  // namespace pagen::graph
