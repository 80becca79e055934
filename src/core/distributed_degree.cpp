// pagen-lint: hot-path — the count loops run per endpoint; flat tables only.
#include "core/distributed_degree.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
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

template <typename Counter>
DegreeHistogram fold_degrees(const std::vector<Counter>& degree) {
  DegreeFold fold;
  for (Counter d : degree) fold.add(d, 1);
  return fold.histogram();
}

/// The edges the kernel has visited, checked against the source's declared
/// total before they are counted: no counter can pass 2 * num_edges, so u32
/// counters never wrap, and a source that streams more edges than it
/// declares fails instead. add() is safe from concurrent rank threads.
class EdgeTally {
 public:
  explicit EdgeTally(Count declared) : declared_(declared) {}

  void add(std::size_t edges) {
    const Count seen = seen_.fetch_add(edges) + edges;
    PAGEN_CHECK_MSG(seen <= declared_, "the source streams more than the "
                                           << declared_
                                           << " edges it declares");
  }

 private:
  const Count declared_;
  std::atomic<Count> seen_{0};
};

/// One shard: every node is local and its local index is v under every
/// scheme, so the endpoints are counted in place — no partition, no
/// messages, and the visitor runs on the caller's thread.
template <typename Counter>
DegreeHistogram count_one_shard(const graph::EdgeSource& source) {
  const NodeId n = source.num_nodes;
  std::vector<Counter> degree(n, 0);
  Counter* const counts = degree.data();
  EdgeTally tally(source.num_edges);
  source.visit_shard(0, [counts, n, &tally](std::span<const graph::Edge> batch) {
    tally.add(batch.size());
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

/// P > 1 shards: rank r streams shard r and owns the counters of its nodes
/// under `scheme`; endpoints owned elsewhere travel as increments.
template <typename Counter>
DegreeHistogram count_per_rank(const graph::EdgeSource& source,
                               partition::Scheme scheme) {
  const int ranks = source.num_shards;
  const auto part = partition::make_partition(scheme, source.num_nodes, ranks);
  EdgeTally tally(source.num_edges);

  // Merged histogram, assembled by rank 0 after its allgather and returned.
  DegreeHistogram merged;

  mps::run_ranks(ranks, [&](mps::Comm& comm) {
    const Rank me = comm.rank();
    std::vector<Counter> degree(part->part_size(me), 0);

    auto bump = [&](NodeId v) { ++degree[part->local_index(v)]; };

    // Phases 1+2 as one BSP superstep: count local endpoints, ship remote
    // ones, then absorb the increments shipped to us.
    mps::SendBuffer<NodeId> increments(comm, kTagIncrement, 512);
    source.visit_shard(me, [&](std::span<const graph::Edge> batch) {
      tally.add(batch.size());
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
  const bool narrow = degree_counts_fit_u32(source.num_edges);
  if (source.num_shards == 1) {
    return narrow ? count_one_shard<std::uint32_t>(source)
                  : count_one_shard<std::uint64_t>(source);
  }
  return narrow ? count_per_rank<std::uint32_t>(source, scheme)
                : count_per_rank<std::uint64_t>(source, scheme);
}

}  // namespace pagen::core
