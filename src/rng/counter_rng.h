// Counter-based deterministic randomness.
//
// Every random decision in the preferential-attachment generators is a pure
// function of (seed, stream coordinates).  A stream coordinate is a 4-tuple
// (purpose, a, b, c): e.g. "the k drawn for node t's e-th edge on attempt r"
// is draw(kPurposePickK, t, e, r).  Because the value does not depend on
// which rank evaluates it or when, the parallel generator reproduces the
// sequential generator's choices bitwise, for any rank count and any
// partitioning scheme — the backbone of the exactness tests (DESIGN.md §5).
//
// The hash is a chained SplitMix64 permutation over the coordinates, which
// passes PractRand-style independence smoke tests (see tests/rng_test.cpp).
// It runs one round per step: purpose_key(purpose), absorb(a), absorb(b),
// finish(c, round). Each step depends only on the steps before it, so a
// caller that makes many draws under the same leading coordinates computes
// that prefix once and pays one round per draw (DrawSchema keeps one state
// per purpose, node and slot). raw() spells the chain out in full; it is the
// reference the steps are tested against.
#pragma once

#include <cstdint>

#include "rng/splitmix.h"
#include "util/error.h"

namespace pagen::rng {

/// Coordinates of one logical random draw.
struct Stream {
  std::uint64_t purpose = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// Deterministic counter-based generator keyed by a 64-bit seed.
/// Immutable and freely shareable across ranks/threads.
class CounterRng {
 public:
  explicit constexpr CounterRng(std::uint64_t seed)
      : key_(splitmix64_mix(seed ^ 0x1905feeb1905feebULL)) {}

  /// Raw 64 uniform bits for the given stream coordinates and round.
  /// Distinct (stream, round) pairs give independent-looking outputs.
  [[nodiscard]] constexpr std::uint64_t raw(const Stream& s,
                                            std::uint64_t round = 0) const {
    std::uint64_t h = key_;
    h = splitmix64_mix(h ^ (s.purpose + 0x9e3779b97f4a7c15ULL));
    h = splitmix64_mix(h ^ s.a);
    h = splitmix64_mix(h ^ s.b);
    h = splitmix64_mix(h ^ (s.c + (round << 32)));
    return h;
  }

  /// Step 1 of raw(): the state after the (seed, purpose) round.
  [[nodiscard]] constexpr std::uint64_t purpose_key(
      std::uint64_t purpose) const {
    return splitmix64_mix(key_ ^ (purpose + 0x9e3779b97f4a7c15ULL));
  }

  /// Step 2 of raw(): absorb the next leading coordinate (a, then b).
  [[nodiscard]] static constexpr std::uint64_t absorb(std::uint64_t state,
                                                      std::uint64_t coord) {
    return splitmix64_mix(state ^ coord);
  }

  /// Step 3 of raw(): the bits of one round for the last coordinate c.
  [[nodiscard]] static constexpr std::uint64_t finish(std::uint64_t state,
                                                      std::uint64_t c,
                                                      std::uint64_t round) {
    return splitmix64_mix(state ^ (c + (round << 32)));
  }

  /// Unbiased uniform integer in [0, bound), bound >= 1.
  /// Lemire multiply-shift with deterministic rejection rounds.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound,
                                    const Stream& s) const {
    return below(bound, prefix(s), s.c);
  }

  /// below() of the stream whose steps 1-2 gave `state` and whose last
  /// coordinate is c.
  [[nodiscard]] static std::uint64_t below(std::uint64_t bound,
                                           std::uint64_t state,
                                           std::uint64_t c) {
    PAGEN_CHECK_MSG(bound >= 1, "uniform bound must be positive");
    using u128 = unsigned __int128;
    std::uint64_t x = finish(state, c, 0);
    u128 m = static_cast<u128>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      // Rejection threshold per Lemire (2019): discard the biased low slice.
      const std::uint64_t threshold = -bound % bound;
      std::uint64_t round = 1;
      while (lo < threshold) {
        x = finish(state, c, round++);
        m = static_cast<u128>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Unbiased uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::uint64_t range(std::uint64_t lo, std::uint64_t hi,
                                    const Stream& s) const {
    return range(lo, hi, prefix(s), s.c);
  }

  /// range() of the stream whose steps 1-2 gave `state`.
  [[nodiscard]] static std::uint64_t range(std::uint64_t lo, std::uint64_t hi,
                                           std::uint64_t state,
                                           std::uint64_t c) {
    PAGEN_CHECK_MSG(lo <= hi, "range lower bound exceeds upper bound");
    return lo + below(hi - lo + 1, state, c);
  }

  /// Uniform double in [0, 1) with 53 random bits.
  [[nodiscard]] double unit(const Stream& s) const {
    return unit(prefix(s), s.c);
  }

  /// unit() of the stream whose steps 1-2 gave `state`.
  [[nodiscard]] static double unit(std::uint64_t state, std::uint64_t c) {
    return static_cast<double>(finish(state, c, 0) >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial: true with probability p.
  [[nodiscard]] bool coin(double p, const Stream& s) const {
    return unit(s) < p;
  }

  /// coin() of the stream whose steps 1-2 gave `state`.
  [[nodiscard]] static bool coin(double p, std::uint64_t state,
                                 std::uint64_t c) {
    return unit(state, c) < p;
  }

 private:
  /// Steps 1-2 of raw() for s: every round but the last.
  [[nodiscard]] constexpr std::uint64_t prefix(const Stream& s) const {
    return absorb(absorb(purpose_key(s.purpose), s.a), s.b);
  }

  std::uint64_t key_;
};

}  // namespace pagen::rng
