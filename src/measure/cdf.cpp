#include "measure/cdf.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace fiveg::measure {

Cdf::Cdf(std::vector<double> samples)
    : samples_(std::move(samples)), sorted_(false) {}

void Cdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error("Cdf::quantile on empty CDF");
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

double Cdf::fraction_below(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Cdf::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double Cdf::min() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double Cdf::max() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

std::vector<std::pair<double, double>> Cdf::curve(std::size_t n) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || n == 0) return out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double q = n == 1 ? 1.0
                            : static_cast<double>(i) /
                                  static_cast<double>(n - 1);
    out.emplace_back(quantile(q), q);
  }
  return out;
}

}  // namespace fiveg::measure
