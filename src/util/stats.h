// Descriptive statistics over numeric samples.
//
// Used throughout the experiment harnesses: load-balance summaries (Fig. 7),
// dependency-chain statistics (Theorem 3.3), and timing aggregation.
#pragma once

#include <cstddef>
#include <span>

namespace pagen {

/// Summary of a numeric sample.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population standard deviation
  double sum = 0.0;
};

/// Compute min/max/mean/stddev/sum in one pass. Empty input yields all zeros.
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// q-th percentile (0 <= q <= 1) via linear interpolation on a sorted copy.
/// Empty input returns 0.
[[nodiscard]] double percentile(std::span<const double> xs, double q);

/// Load-imbalance factor: max / mean. 1.0 means perfectly balanced.
/// Returns 0 for empty input or zero mean.
[[nodiscard]] double imbalance(std::span<const double> xs);

/// Ordinary least-squares fit y = a + b x. Returns {a, b, r2}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;
};
[[nodiscard]] LinearFit linear_fit(std::span<const double> x,
                                   std::span<const double> y);

/// Pearson chi-squared statistic of observed counts against expected counts.
/// Bins with expected < min_expected are pooled into the previous bin.
/// Used by the statistical tests for the copy model (Pr{F_t=i} = d_i/sum d).
[[nodiscard]] double chi_squared(std::span<const double> observed,
                                 std::span<const double> expected,
                                 double min_expected = 5.0);

}  // namespace pagen
