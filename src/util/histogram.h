// Logarithmically binned histograms.
//
// The degree-distribution experiments (Fig. 4) plot log–log degree frequency;
// log binning smooths the heavy tail exactly as the paper's figure does.
#pragma once

#include <cstdint>
#include <vector>

namespace pagen {

/// A (center, count) pair emitted by histogram readers.
struct HistBin {
  double center = 0.0;
  double width = 0.0;
  std::uint64_t count = 0;
};

/// Logarithmically binned histogram for positive values: bin i covers
/// [base^i, base^{i+1}). Used for heavy-tailed degree distributions.
class LogHistogram {
 public:
  /// @param base bin growth factor, must be > 1. The paper's figures use
  ///   roughly base 1.3–2 binning for the tail.
  explicit LogHistogram(double base = 1.5);

  void add(double value, std::uint64_t weight = 1);

  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Non-empty bins; `center` is the geometric mean of bin edges and `width`
  /// the bin's extent (used to normalize counts into densities).
  [[nodiscard]] std::vector<HistBin> bins() const;

 private:
  double base_;
  double log_base_;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> counts_;  // index = floor(log_base(value)) + offset
  int min_exp_ = 0;
  bool empty_ = true;
};

}  // namespace pagen
