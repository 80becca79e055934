#include "util/histogram.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/error.h"

namespace pagen {
namespace {

TEST(LogHistogram, BinBoundariesGrowGeometrically) {
  LogHistogram h(2.0);
  h.add(1.0);   // bin [1,2)
  h.add(1.5);   // bin [1,2)
  h.add(2.0);   // bin [2,4)
  h.add(3.9);   // bin [2,4)
  h.add(4.0);   // bin [4,8)
  const auto bins = h.bins();
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_EQ(bins[0].count, 2u);
  EXPECT_EQ(bins[1].count, 2u);
  EXPECT_EQ(bins[2].count, 1u);
  EXPECT_NEAR(bins[0].center, std::sqrt(2.0), 1e-12);
}

TEST(LogHistogram, HandlesValuesBelowOne) {
  LogHistogram h(2.0);
  h.add(0.3);
  h.add(8.0);
  EXPECT_EQ(h.total(), 2u);
  const auto bins = h.bins();
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_LT(bins[0].center, 1.0);
}

TEST(LogHistogram, GrowsDownwardAfterTheFact) {
  LogHistogram h(2.0);
  h.add(64.0);
  h.add(0.5);  // forces a prepend of bins
  const auto bins = h.bins();
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_EQ(bins[0].count, 1u);
  EXPECT_EQ(bins[1].count, 1u);
}

TEST(LogHistogram, RejectsNonPositive) {
  LogHistogram h;
  EXPECT_THROW(h.add(0.0), CheckError);
  EXPECT_THROW(h.add(-1.0), CheckError);
}

TEST(LogHistogram, TotalMatchesWeights) {
  LogHistogram h(1.5);
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.total(), 100u);
  std::uint64_t sum = 0;
  for (const auto& b : h.bins()) sum += b.count;
  EXPECT_EQ(sum, 100u);
}

}  // namespace
}  // namespace pagen
