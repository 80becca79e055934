#include "core/approx_pa.h"

#include <vector>

#include "mps/engine.h"
#include "partition/partition.h"
#include "rng/splitmix.h"
#include "rng/xoshiro.h"
#include "util/error.h"

namespace pagen::core {
namespace {

constexpr int kRetryCap = 10000;

}  // namespace

ApproxPaResult generate_approx_pa(const PaConfig& config,
                                  const ApproxPaOptions& options) {
  check_pa_config(config);
  PAGEN_CHECK(options.ranks >= 1);
  PAGEN_CHECK(options.sync_interval >= 1);
  PAGEN_CHECK(options.sample_size >= 1);
  PAGEN_CHECK_MSG(static_cast<NodeId>(options.ranks) <= config.n,
                  "more ranks than nodes");

  // Round-robin keeps every rank's label frontier advancing in lockstep, so
  // the local lists are only mildly stale between syncs.
  const auto part = partition::make_partition(partition::Scheme::kRrp,
                                              config.n, options.ranks);
  const NodeId x = config.x;

  const auto nranks = static_cast<std::size_t>(options.ranks);
  std::vector<graph::EdgeList> edge_slots(nranks);
  std::vector<Count> exchanged_slots(nranks, 0);

  // Global sync schedule: every rank participates in the same number of
  // collective rounds regardless of its part size.
  Count max_part = 0;
  for (int r = 0; r < options.ranks; ++r) {
    max_part = std::max(max_part, part->part_size(r));
  }
  const Count rounds = (max_part + options.sync_interval - 1) /
                       options.sync_interval;

  const mps::RunResult run = mps::run_ranks(options.ranks, [&](mps::Comm& comm) {
    const Rank me = comm.rank();
    rng::Xoshiro256pp rng(
        rng::splitmix64_mix(config.seed ^ (0x51ed270b7a03f2edULL * (me + 1))));

    // Local repetition-list proxy, seeded with the initial clique (global
    // knowledge: the clique is part of the model definition).
    std::vector<NodeId> proxy;
    for (NodeId i = 0; i < x; ++i) {
      for (NodeId j = i + 1; j < x; ++j) {
        proxy.push_back(i);
        proxy.push_back(j);
      }
    }
    // Bootstrap mass for x = 1: the edge (1,0) gives both endpoints degree
    // one. Every rank starts from this shared knowledge.
    if (x == 1) proxy.assign({0, 1});

    auto& edges = edge_slots[static_cast<std::size_t>(me)];
    // Clique edges are emitted once, by rank 0.
    if (me == 0 && x > 1) {
      for (NodeId i = 0; i < x; ++i) {
        for (NodeId j = i + 1; j < x; ++j) edges.push_back({j, i});
      }
    }

    // Recent appends since the last sync — the pool samples are drawn from.
    std::vector<NodeId> recent;
    std::vector<NodeId> chosen;

    const Count my_nodes = part->part_size(me);
    Count processed = 0;
    for (Count round = 0; round < rounds; ++round) {
      const Count until =
          std::min(my_nodes, (round + 1) * options.sync_interval);
      for (; processed < until; ++processed) {
        const NodeId t = part->node_at(me, processed);
        if (t < x) continue;  // clique edges emitted by rank 0 above
        if (t == x) {
          // Bootstrap convention shared with the exact algorithms: node x
          // connects to the whole clique (the single edge (1,0) for x = 1,
          // whose proxy mass is already in every rank's initial list).
          for (NodeId e = 0; e < x; ++e) {
            edges.push_back({t, e});
            if (x > 1) {
              proxy.push_back(t);
              proxy.push_back(e);
            }
          }
          continue;
        }
        chosen.clear();
        for (NodeId e = 0; e < x; ++e) {
          NodeId v = kNil;
          for (int attempt = 0; attempt < kRetryCap; ++attempt) {
            const NodeId candidate = proxy[rng.below(proxy.size())];
            if (candidate >= t) continue;  // attach to older nodes only
            bool dup = false;
            for (NodeId c : chosen) dup = dup || (c == candidate);
            if (!dup) {
              v = candidate;
              break;
            }
          }
          if (v == kNil) v = e;  // degenerate fallback: clique node
          chosen.push_back(v);
          edges.push_back({t, v});
          proxy.push_back(t);
          proxy.push_back(v);
          recent.push_back(t);
          recent.push_back(v);
        }
      }

      // Synchronization round: exchange uniform samples of recent endpoint
      // appends; everyone absorbs everyone's samples into their proxy.
      std::vector<std::byte> blob;
      const Count contribute =
          std::min<Count>(options.sample_size, recent.size());
      for (Count s = 0; s < contribute; ++s) {
        mps::pack_one(blob, recent[rng.below(recent.size())]);
      }
      recent.clear();
      const auto all = comm.allgather_bytes(std::move(blob));
      for (std::size_t r = 0; r < all.size(); ++r) {
        if (static_cast<Rank>(r) == me) continue;
        mps::for_each_packed<NodeId>(all[r], [&](const NodeId& v) {
          proxy.push_back(v);
          ++exchanged_slots[static_cast<std::size_t>(me)];
        });
      }
    }
  });

  ApproxPaResult result;
  result.sync_rounds = rounds;
  result.wall_seconds = run.wall_seconds;
  for (Count c : exchanged_slots) result.exchanged_samples += c;
  Count total = 0;
  for (const auto& slot : edge_slots) total += slot.size();
  result.edges.reserve(total);
  for (const auto& slot : edge_slots) {
    result.edges.insert(result.edges.end(), slot.begin(), slot.end());
  }
  return result;
}

}  // namespace pagen::core
