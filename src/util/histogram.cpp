#include "util/histogram.h"

#include <cmath>

#include "util/error.h"

namespace pagen {

LogHistogram::LogHistogram(double base) : base_(base), log_base_(std::log(base)) {
  PAGEN_CHECK(base > 1.0);
}

void LogHistogram::add(double value, std::uint64_t weight) {
  PAGEN_CHECK_MSG(value > 0.0, "LogHistogram only accepts positive values");
  const int e = static_cast<int>(std::floor(std::log(value) / log_base_));
  if (empty_) {
    min_exp_ = e;
    counts_.assign(1, 0);
    empty_ = false;
  } else if (e < min_exp_) {
    counts_.insert(counts_.begin(), static_cast<std::size_t>(min_exp_ - e), 0);
    min_exp_ = e;
  } else if (const auto idx = static_cast<std::size_t>(e - min_exp_);
             idx >= counts_.size()) {
    counts_.resize(idx + 1, 0);
  }
  counts_[static_cast<std::size_t>(e - min_exp_)] += weight;
  total_ += weight;
}

std::vector<HistBin> LogHistogram::bins() const {
  std::vector<HistBin> out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double lo = std::pow(base_, static_cast<double>(min_exp_) + static_cast<double>(i));
    const double hi = lo * base_;
    out.push_back({std::sqrt(lo * hi), hi - lo, counts_[i]});
  }
  return out;
}

}  // namespace pagen
