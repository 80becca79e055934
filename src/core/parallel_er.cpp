#include "core/parallel_er.h"

#include <cmath>

#include "mps/engine.h"
#include "rng/splitmix.h"
#include "rng/xoshiro.h"
#include "util/error.h"

namespace pagen::core {
namespace {

using u128 = unsigned __int128;

/// C(v, 2) = v(v-1)/2 (0 for v < 2), in 128 bits so it never wraps.
u128 pairs_below(Count v) { return static_cast<u128>(v) * (v - 1) / 2; }

/// First pair index of rank r's chunk, ⌊C·r/P⌋. The product C·r exceeds
/// 64 bits long before C does (at n = 10⁹ from r = 37), so it is taken in
/// 128 bits.
Count chunk_begin(Count total_pairs, Count r, Count ranks) {
  return static_cast<Count>(static_cast<u128>(total_pairs) * r / ranks);
}

/// Sample rank r's chunk [begin, end) of the pair-index space into `shard`.
void sample_chunk(const baseline::ErConfig& config, Count r, Count begin,
                  Count end, graph::EdgeList& shard) {
  if (config.p <= 0.0 || begin >= end) return;

  if (config.p >= 1.0) {
    shard.reserve(end - begin);
    for (Count idx = begin; idx < end; ++idx) {
      shard.push_back(pair_from_index(idx));
    }
    return;
  }
  // Private stream per (seed, rank): mix the rank into the seed.
  rng::Xoshiro256pp rng(
      rng::splitmix64_mix(config.seed ^ (0x9e3779b97f4a7c15ULL * (r + 1))));
  const double log_q = std::log(1.0 - config.p);
  // Positions are linear pair indices; walk by geometric skips.
  Count pos = begin;
  bool first = true;
  while (true) {
    const double u = rng.unit();
    const auto skip = static_cast<Count>(std::floor(std::log1p(-u) / log_q));
    // The first step lands uniformly inside the chunk's initial geometric
    // gap; subsequent steps advance past the previous edge.
    pos = first ? begin + skip : pos + 1 + skip;
    first = false;
    if (pos >= end) break;
    shard.push_back(pair_from_index(pos));
  }
}

}  // namespace

graph::Edge pair_from_index(Count idx) {
  // v is the largest integer with v(v-1)/2 <= idx. Start from the floating
  // inverse and correct the ±1 rounding integer-exactly.
  auto v = static_cast<Count>(
      (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(idx))) / 2.0);
  while (pairs_below(v) > idx) --v;
  while (pairs_below(v + 1) <= idx) ++v;
  const Count w = idx - static_cast<Count>(pairs_below(v));
  PAGEN_DCHECK(w < v);
  return {v, w};
}

ParallelErResult generate_er(const baseline::ErConfig& config, int ranks,
                             bool gather) {
  PAGEN_CHECK(ranks >= 1);
  PAGEN_CHECK(config.p >= 0.0 && config.p <= 1.0);
  PAGEN_CHECK_MSG(config.n <= (Count{1} << 32),
                  "ER pair indices need n <= 2^32");
  const auto total_pairs = static_cast<Count>(pairs_below(config.n));
  const auto nranks = static_cast<Count>(ranks);

  ParallelErResult result;
  result.shards.resize(static_cast<std::size_t>(ranks));
  const mps::RunResult run = mps::run_ranks(ranks, [&](mps::Comm& comm) {
    const auto r = static_cast<Count>(comm.rank());
    sample_chunk(config, r, chunk_begin(total_pairs, r, nranks),
                 chunk_begin(total_pairs, r + 1, nranks), result.shards[r]);
    // One trailing barrier, so wall_seconds covers every rank's generation.
    comm.barrier();
  });

  result.wall_seconds = run.wall_seconds;
  for (const auto& shard : result.shards) result.total_edges += shard.size();
  if (gather) {
    result.edges.reserve(result.total_edges);
    for (const auto& shard : result.shards) {
      result.edges.insert(result.edges.end(), shard.begin(), shard.end());
    }
  }
  return result;
}

}  // namespace pagen::core
