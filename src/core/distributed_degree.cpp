// pagen-lint: hot-path — the count loops run per endpoint; flat tables only.
#include "core/distributed_degree.h"

#include <algorithm>
#include <span>

#include "mps/bsp.h"
#include "mps/engine.h"
#include "mps/send_buffer.h"
#include "util/error.h"

namespace pagen::core {
namespace {

constexpr int kTagIncrement = 10;

/// Degrees below this fold into a flat counts-by-degree table. Nodes at or
/// above it go to a side list, which holds at most 2m / kFlatDegrees
/// entries, so a star's single degree n - 1 costs one entry, not n.
constexpr Count kFlatDegrees = Count{1} << 16;

/// (degree -> node count) accumulator.
class DegreeFold {
 public:
  DegreeFold() : flat_(kFlatDegrees, 0) {}

  void add(Count degree, Count nodes) {
    if (degree < kFlatDegrees) {
      flat_[degree] += nodes;
    } else {
      heavy_.emplace_back(degree, nodes);
    }
  }

  /// The non-empty bins, ascending by degree.
  [[nodiscard]] DegreeHistogram histogram() {
    DegreeHistogram out;
    for (Count d = 0; d < kFlatDegrees; ++d) {
      if (flat_[d] != 0) out.emplace_back(d, flat_[d]);
    }
    std::sort(heavy_.begin(), heavy_.end());
    for (const auto& [degree, nodes] : heavy_) {
      if (!out.empty() && out.back().first == degree) {
        out.back().second += nodes;
      } else {
        out.emplace_back(degree, nodes);
      }
    }
    return out;
  }

 private:
  std::vector<Count> flat_;
  DegreeHistogram heavy_;  ///< (degree, nodes) at or above the cap, unsorted
};

DegreeHistogram fold_degrees(const std::vector<Count>& degree) {
  DegreeFold fold;
  for (Count d : degree) fold.add(d, 1);
  return fold.histogram();
}

/// One shard: every node is local and its local index is v under every
/// scheme, so the endpoints are counted in place — no partition, no
/// messages, and the visitor runs on the caller's thread.
DegreeHistogram count_one_shard(const graph::EdgeSource& source) {
  const NodeId n = source.num_nodes;
  std::vector<Count> degree(n, 0);
  Count* const counts = degree.data();
  source.visit_shard(0, [counts, n](std::span<const graph::Edge> batch) {
    for (const graph::Edge& e : batch) {
      PAGEN_CHECK_MSG(std::max(e.u, e.v) < n,
                      "edge (" << e.u << ", " << e.v
                               << ") has an endpoint outside [0, " << n
                               << ")");
      ++counts[e.u];
      ++counts[e.v];
    }
  });
  return fold_degrees(degree);
}

}  // namespace

DegreeHistogram distributed_degree_distribution(
    const std::vector<graph::EdgeList>& shards, NodeId n,
    partition::Scheme scheme) {
  PAGEN_CHECK(!shards.empty());
  return distributed_degree_distribution(graph::make_edge_source(n, shards),
                                         scheme);
}

DegreeHistogram distributed_degree_distribution(
    const graph::EdgeSource& source, partition::Scheme scheme) {
  PAGEN_CHECK(source.num_shards > 0);
  if (source.num_shards == 1) return count_one_shard(source);
  const int ranks = source.num_shards;
  const auto part = partition::make_partition(scheme, source.num_nodes, ranks);

  // Merged histogram, assembled by rank 0 after its allgather and returned.
  DegreeHistogram merged;

  mps::run_ranks(ranks, [&](mps::Comm& comm) {
    const Rank me = comm.rank();
    std::vector<Count> degree(part->part_size(me), 0);

    auto bump = [&](NodeId v) { ++degree[part->local_index(v)]; };

    // Phases 1+2 as one BSP superstep: count local endpoints, ship remote
    // ones, then absorb the increments shipped to us.
    mps::SendBuffer<NodeId> increments(comm, kTagIncrement, 512);
    source.visit_shard(me, [&](std::span<const graph::Edge> batch) {
      for (const graph::Edge& e : batch) {
        for (NodeId v : {e.u, e.v}) {
          const Rank owner = part->owner(v);
          if (owner == me) {
            bump(v);
          } else {
            increments.add(owner, v);
          }
        }
      }
    });
    mps::bsp_exchange<NodeId>(comm, increments, kTagIncrement,
                              [&](const NodeId& v) { bump(v); });

    // Phase 3: fold my nodes' degrees into a (degree -> count) table and
    // allgather the tables.
    std::vector<std::byte> blob;
    for (const auto& [deg, count] : fold_degrees(degree)) {
      mps::pack_one(blob, deg);
      mps::pack_one(blob, count);
    }
    const auto all = comm.allgather_bytes(std::move(blob));

    if (me == 0) {
      DegreeFold total;
      for (const auto& rank_blob : all) {
        const auto items = mps::unpack<Count>(rank_blob);
        PAGEN_CHECK(items.size() % 2 == 0);
        for (std::size_t i = 0; i < items.size(); i += 2) {
          total.add(items[i], items[i + 1]);
        }
      }
      merged = total.histogram();
    }
  });

  return merged;
}

}  // namespace pagen::core
