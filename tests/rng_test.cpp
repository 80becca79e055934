#include <cmath>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/pa_config.h"
#include "baseline/pa_draws.h"
#include "rng/counter_rng.h"
#include "rng/splitmix.h"
#include "rng/xoshiro.h"
#include "util/error.h"

namespace pagen::rng {
namespace {

TEST(SplitMix, KnownReferenceSequence) {
  // Reference values for seed 1234567 from the public-domain C reference.
  SplitMix64 sm(1234567);
  EXPECT_EQ(sm.next(), 6457827717110365317ull);
  EXPECT_EQ(sm.next(), 3203168211198807973ull);
}

TEST(SplitMix, MixIsDeterministicAndDispersive) {
  EXPECT_EQ(splitmix64_mix(42), splitmix64_mix(42));
  EXPECT_NE(splitmix64_mix(42), splitmix64_mix(43));
  // Single-bit input flips should flip roughly half the output bits.
  const std::uint64_t a = splitmix64_mix(0x1000);
  const std::uint64_t b = splitmix64_mix(0x1001);
  const int flipped = __builtin_popcountll(a ^ b);
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

TEST(CounterRng, PureFunctionOfCoordinates) {
  const CounterRng rng(99);
  const Stream s{1, 2, 3, 4};
  EXPECT_EQ(rng.raw(s), rng.raw(s));
  EXPECT_EQ(rng.raw(s, 7), rng.raw(s, 7));
  EXPECT_NE(rng.raw(s, 0), rng.raw(s, 1));
}

TEST(CounterRng, DifferentSeedsDiffer) {
  const CounterRng a(1), b(2);
  const Stream s{1, 10, 0, 0};
  EXPECT_NE(a.raw(s), b.raw(s));
}

TEST(CounterRng, CoordinatesAreNotConfused) {
  // (a=1, b=2) must differ from (a=2, b=1): coordinates must not commute.
  const CounterRng rng(5);
  EXPECT_NE(rng.raw({0, 1, 2, 0}), rng.raw({0, 2, 1, 0}));
  EXPECT_NE(rng.raw({1, 0, 0, 0}), rng.raw({0, 1, 0, 0}));
}

// Known answers: any change to the hash, its constants or its round order
// changes every output of every generator, so these literals catch it.
TEST(CounterRng, KnownAnswers) {
  const CounterRng rng(2024);
  const Stream s{1, 123456789, 5, 7};
  EXPECT_EQ(rng.raw(s, 0), 14067185017194504014ull);
  EXPECT_EQ(rng.raw(s, 1), 8131015396417460362ull);
  EXPECT_EQ(rng.range(6, 999999, s), 762585u);
  std::uint64_t coins = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    coins |= std::uint64_t{rng.coin(0.5, {2, 1000 + i, 3, 0})} << i;
  }
  EXPECT_EQ(coins, 0xd31dc93e830d3417ull);
}

// A bound above 2^63 rejects about half of all rounds. On these coordinates
// round 0 falls in the biased slice, and the answer comes from round 1, 2
// or 3 of raw().
TEST(CounterRng, BelowRejectionLoopKnownAnswers) {
  using u128 = unsigned __int128;
  const CounterRng rng(2024);
  const std::uint64_t bound = (std::uint64_t{1} << 63) + 12345;
  const std::uint64_t threshold = -bound % bound;
  struct Pin {
    std::uint64_t a;
    std::uint64_t accepted_round;
    std::uint64_t value;
  };
  for (const Pin& pin : {Pin{10, 1, 5502473717525506312ull},
                         Pin{5, 2, 7641796624607326722ull},
                         Pin{3, 3, 5209917835065771261ull}}) {
    const Stream s{9, pin.a, 0, 0};
    std::uint64_t round = 0;
    u128 m = static_cast<u128>(rng.raw(s, round)) * bound;
    while (static_cast<std::uint64_t>(m) < threshold) {
      m = static_cast<u128>(rng.raw(s, ++round)) * bound;
    }
    EXPECT_EQ(round, pin.accepted_round) << pin.a;
    EXPECT_EQ(static_cast<std::uint64_t>(m >> 64), pin.value) << pin.a;
    EXPECT_EQ(rng.below(bound, s), pin.value) << pin.a;
  }
}

TEST(CounterRng, StepsComposeToRaw) {
  const CounterRng rng(77);
  SplitMix64 coords(5);
  for (int i = 0; i < 4096; ++i) {
    const Stream s{coords.next() % 8, coords.next(), coords.next(),
                   coords.next() >> 32};
    const std::uint64_t state = CounterRng::absorb(
        CounterRng::absorb(rng.purpose_key(s.purpose), s.a), s.b);
    for (std::uint64_t round = 0; round < 3; ++round) {
      ASSERT_EQ(CounterRng::finish(state, s.c, round), rng.raw(s, round));
    }
  }
}

TEST(CounterRng, BelowRespectsBound) {
  const CounterRng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (std::uint64_t i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound, {9, i, bound, 0}), bound);
    }
  }
}

TEST(CounterRng, BelowOneAlwaysZero) {
  const CounterRng rng(7);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.below(1, {2, i, 0, 0}), 0u);
  }
}

TEST(CounterRng, RangeInclusive) {
  const CounterRng rng(11);
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.range(10, 12, {3, i, 0, 0});
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u) << "all three values should appear in 500 draws";
}

TEST(CounterRng, RangeRejectsInverted) {
  const CounterRng rng(1);
  EXPECT_THROW((void)rng.range(5, 4, {0, 0, 0, 0}), CheckError);
}

TEST(CounterRng, UniformityChiSquared) {
  // 16 buckets, 16000 draws: chi2 with 15 dof, 99.9% critical value ~37.7.
  const CounterRng rng(2024);
  std::vector<double> obs(16, 0.0);
  const int draws = 16000;
  for (int i = 0; i < draws; ++i) {
    obs[rng.below(16, {4, static_cast<std::uint64_t>(i), 0, 0})] += 1.0;
  }
  double chi2 = 0.0;
  const double expected = draws / 16.0;
  for (double o : obs) chi2 += (o - expected) * (o - expected) / expected;
  EXPECT_LT(chi2, 37.7);
}

TEST(CounterRng, UnitInHalfOpenInterval) {
  const CounterRng rng(3);
  double sum = 0.0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const double u = rng.unit({5, static_cast<std::uint64_t>(i), 0, 0});
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / draws, 0.5, 0.01);
}

TEST(CounterRng, CoinMatchesProbability) {
  const CounterRng rng(8);
  for (double p : {0.1, 0.5, 0.9}) {
    int heads = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
      heads += rng.coin(p, {6, static_cast<std::uint64_t>(i),
                            static_cast<std::uint64_t>(p * 100), 0});
    }
    EXPECT_NEAR(static_cast<double>(heads) / trials, p, 0.015) << "p=" << p;
  }
}

PaConfig schema_config(NodeId x, double p, std::uint64_t seed) {
  PaConfig config;
  config.n = 1000000;
  config.x = x;
  config.p = p;
  config.seed = seed;
  return config;
}

TEST(DrawSchema, KnownAnswers) {
  struct Pin {
    NodeId x, t, e;
    std::uint64_t attempt;
    NodeId k;
    bool direct;
    NodeId l;
  };
  const NodeId big = (NodeId{1} << 40) + 17;
  for (const Pin& pin : {Pin{1, 1000, 0, 0, 63, false, 0},
                         Pin{1, 999999, 0, 3, 986090, true, 0},
                         Pin{1, big, 0, 1, 150126736974, true, 0},
                         Pin{6, 1000, 0, 0, 68, false, 4},
                         Pin{6, 999999, 5, 3, 705175, true, 4},
                         Pin{6, big, 3, 1, 883719439672, false, 0}}) {
    const DrawSchema draws(schema_config(pin.x, 0.5, 2024));
    EXPECT_EQ(draws.pick_k(pin.t, pin.e, pin.attempt), pin.k) << pin.t;
    EXPECT_EQ(draws.pick_direct(pin.t, pin.e, pin.attempt), pin.direct)
        << pin.t;
    EXPECT_EQ(draws.pick_l(pin.t, pin.e, pin.attempt), pin.l) << pin.t;
  }
}

// The row/slot draws the commfree deriver hoists, the (t, e, attempt)
// overloads and the plain CounterRng streams are one function.
TEST(DrawSchema, HoistedDrawsMatchStreamReference) {
  constexpr std::uint64_t kSeed = 31;
  const CounterRng rng(kSeed);
  for (const NodeId x : {NodeId{1}, NodeId{2}, NodeId{6}}) {
    for (const double p : {0.0, 0.5, 0.9}) {
      const DrawSchema draws(schema_config(x, p, kSeed));
      const NodeId lo = x == 1 ? NodeId{1} : x;
      SplitMix64 coords(x * 100 + static_cast<std::uint64_t>(p * 10));
      for (int i = 0; i < (1 << 16); ++i) {
        const NodeId t = lo + 1 + coords.next() % (NodeId{1} << 40);
        const NodeId e = coords.next() % x;
        const std::uint64_t a = coords.next() % (1 << 17);
        const DrawSchema::Slot slot = draws.row(t).slot(e);

        const NodeId k = draws.pick_k(slot, a);
        ASSERT_EQ(k, draws.pick_k(t, e, a)) << t << " " << e << " " << a;
        ASSERT_EQ(k, rng.range(lo, t - 1, {1, t, e, a}));
        const bool direct = draws.pick_direct(slot, a);
        ASSERT_EQ(direct, draws.pick_direct(t, e, a));
        ASSERT_EQ(direct, rng.coin(p, {2, t, e, a}));
        const NodeId l = draws.pick_l(slot, a);
        ASSERT_EQ(l, draws.pick_l(t, e, a));
        ASSERT_EQ(l, rng.below(x, {3, t, e, a}));
      }
    }
  }
}

TEST(Xoshiro, ReproducibleForSeed) {
  Xoshiro256pp a(5), b(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, BelowUnbiasedSmoke) {
  Xoshiro256pp rng(17);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) ++counts[rng.below(7)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Xoshiro, UnitBounds) {
  Xoshiro256pp rng(21);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.unit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace pagen::rng
