// Empirical CDFs — the paper presents most distributions (hand-off latency,
// RSRQ gaps, throughput drops) as CDF plots; benches print sampled series
// from these objects.
#pragma once

#include <cstddef>
#include <vector>

namespace fiveg::measure {

/// Empirical cumulative distribution over a sample set.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> samples);

  /// Adds one sample (invalidates nothing; sorting is lazy).
  void add(double x);

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  /// Value below which `q` (in [0,1]) of the mass lies, by linear
  /// interpolation between order statistics (the "type 7" convention:
  /// position q*(n-1) over the sorted samples). Pinned endpoints:
  /// quantile(0) is the sample minimum and quantile(1) the sample maximum
  /// — exactly, with no interpolation or extrapolation — and q outside
  /// [0,1] is clamped to those endpoints. A single-sample CDF returns
  /// that sample for every q. Throws std::logic_error when empty().
  [[nodiscard]] double quantile(double q) const;

  /// Fraction of samples <= x, in [0,1].
  [[nodiscard]] double fraction_below(double x) const;

  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Evenly spaced (value, cumulative-fraction) points for printing a CDF
  /// curve with `n` rows.
  [[nodiscard]] std::vector<std::pair<double, double>> curve(
      std::size_t n) const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace fiveg::measure
