#include "measure/histogram.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace fiveg::measure {

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  if (edges_.size() < 2) {
    throw std::invalid_argument("Histogram needs at least two bin edges");
  }
  if (!std::is_sorted(edges_.begin(), edges_.end()) ||
      std::adjacent_find(edges_.begin(), edges_.end()) != edges_.end()) {
    throw std::invalid_argument("Histogram edges must be strictly increasing");
  }
  counts_.assign(edges_.size() - 1, 0);
}

void Histogram::add(double x) {
  // upper_bound - 1 gives the bin whose lower edge is <= x; clamp the ends.
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
  std::size_t idx = 0;
  if (it == edges_.begin()) {
    idx = 0;
  } else {
    idx = static_cast<std::size_t>(it - edges_.begin()) - 1;
    idx = std::min(idx, counts_.size() - 1);
  }
  ++counts_[idx];
  ++total_;
}

std::size_t Histogram::count(std::size_t bin) const {
  return counts_.at(bin);
}

double Histogram::fraction(std::size_t bin) const {
  return total_ == 0
             ? 0.0
             : static_cast<double>(count(bin)) / static_cast<double>(total_);
}

std::string Histogram::bin_label(std::size_t bin) const {
  std::ostringstream os;
  os << "[" << edges_.at(bin) << ", " << edges_.at(bin + 1) << ")";
  return os.str();
}

}  // namespace fiveg::measure
