#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"

namespace pagen {

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  s.count = xs.size();
  s.min = xs[0];
  s.max = xs[0];
  double sum = 0.0;
  for (double x : xs) {
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
    sum += x;
  }
  s.sum = sum;
  s.mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) {
    const double d = x - s.mean;
    ss += d * d;
  }
  s.stddev = std::sqrt(ss / static_cast<double>(xs.size()));
  return s;
}

double percentile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  PAGEN_CHECK(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double imbalance(std::span<const double> xs) {
  const Summary s = summarize(xs);
  if (s.count == 0 || s.mean == 0.0) return 0.0;
  return s.max / s.mean;
}

LinearFit linear_fit(std::span<const double> x, std::span<const double> y) {
  PAGEN_CHECK(x.size() == y.size());
  LinearFit fit;
  const auto n = static_cast<double>(x.size());
  if (x.size() < 2) return fit;
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) return fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double sst = syy - sy * sy / n;
  if (sst > 0.0) {
    double sse = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double e = y[i] - (fit.intercept + fit.slope * x[i]);
      sse += e * e;
    }
    fit.r_squared = 1.0 - sse / sst;
  }
  return fit;
}

double chi_squared(std::span<const double> observed,
                   std::span<const double> expected, double min_expected) {
  PAGEN_CHECK(observed.size() == expected.size());
  double chi2 = 0.0;
  double pooled_obs = 0.0;
  double pooled_exp = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    pooled_obs += observed[i];
    pooled_exp += expected[i];
    if (pooled_exp >= min_expected) {
      const double d = pooled_obs - pooled_exp;
      chi2 += d * d / pooled_exp;
      pooled_obs = 0.0;
      pooled_exp = 0.0;
    }
  }
  if (pooled_exp > 0.0) {
    const double d = pooled_obs - pooled_exp;
    chi2 += d * d / pooled_exp;
  }
  return chi2;
}

}  // namespace pagen
