// Fixed-bin histograms, used for the paper's binned tables (e.g. Table 2's
// RSRP ranges) and for the HARQ retransmission-count distribution.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace fiveg::measure {

/// Histogram over user-supplied bin edges. A sample lands in bin i when
/// edges[i] <= x < edges[i+1]; out-of-range samples go to saturating end
/// bins so nothing is silently dropped.
class Histogram {
 public:
  /// `edges` must be strictly increasing with at least two entries.
  explicit Histogram(std::vector<double> edges);

  void add(double x);

  [[nodiscard]] std::size_t bin_count() const noexcept {
    return counts_.size();
  }
  [[nodiscard]] std::size_t count(std::size_t bin) const;
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

  /// Fraction of all samples in `bin` (0 when empty).
  [[nodiscard]] double fraction(std::size_t bin) const;

  /// Inclusive-exclusive range of a bin, e.g. "[-90, -80)".
  [[nodiscard]] std::string bin_label(std::size_t bin) const;

  [[nodiscard]] const std::vector<double>& edges() const noexcept {
    return edges_;
  }

 private:
  std::vector<double> edges_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace fiveg::measure
