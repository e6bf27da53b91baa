#include "obs/digest.h"

#include <algorithm>
#include <cmath>

namespace fiveg::obs {

namespace {

// gamma = (1+a)/(1-a); keys are ceil(log_gamma |v|).
const double kGamma = (1.0 + Digest::kAlpha) / (1.0 - Digest::kAlpha);
const double kInvLogGamma = 1.0 / std::log(kGamma);

}  // namespace

std::int32_t Digest::bucket_key(double magnitude) noexcept {
  const double k = std::ceil(std::log(magnitude) * kInvLogGamma);
  if (k >= kMaxKey) return kMaxKey;
  if (k <= -kMaxKey) return -kMaxKey;
  return static_cast<std::int32_t>(k);
}

double Digest::bucket_value(std::int32_t key) noexcept {
  // Midpoint of (gamma^(key-1), gamma^key]: relative error <= kAlpha.
  return 2.0 * std::pow(kGamma, key) / (kGamma + 1.0);
}

// Growth at either end at least doubles the range (never past the key
// bounds), so a series arriving in any key order costs amortised O(1) per
// observation; the new array is sized exactly, so storage stays within
// twice the touched range.
void Digest::Buckets::add(std::int32_t key, std::uint64_t n) {
  key = std::clamp(key, -kMaxKey, kMaxKey);
  if (counts_.empty()) {
    lo_ = key;
    counts_.assign(1, 0);
  }
  const auto size = static_cast<std::int64_t>(counts_.size());
  const std::int64_t hi = lo_ + size;  // exclusive
  if (key < lo_ || key >= hi) {
    std::int64_t new_lo = lo_;
    std::int64_t new_hi = hi;
    if (key < lo_) {
      new_lo = std::clamp<std::int64_t>(lo_ - size, -kMaxKey, key);
    } else {
      new_hi = std::clamp<std::int64_t>(hi + size, key + 1, kMaxKey + 1);
    }
    std::vector<std::uint64_t> grown(static_cast<std::size_t>(new_hi - new_lo));
    std::copy(counts_.begin(), counts_.end(), grown.begin() + (lo_ - new_lo));
    counts_ = std::move(grown);
    lo_ = static_cast<std::int32_t>(new_lo);
  }
  counts_[static_cast<std::size_t>(key - lo_)] += n;
}

void Digest::Buckets::add_all(const Buckets& other) {
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    if (other.counts_[i] != 0) {
      add(other.key_at(i), other.counts_[i]);
    }
  }
}

Bins Digest::Buckets::nonzero() const {
  Bins out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) {
      out.emplace_back(key_at(i), counts_[i]);
    }
  }
  return out;
}

void Digest::observe(double v, std::uint64_t weight) noexcept {
  if (std::isnan(v) || weight == 0) return;
  count_ += weight;
  sum_ += v * static_cast<double>(weight);  // exact at weight 1
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
  const double mag = std::abs(v);
  if (mag < kZeroEpsilon) {
    zero_ += weight;
  } else {
    (v > 0.0 ? pos_ : neg_).add(bucket_key(mag), weight);
  }
}

Digest Digest::restore(std::uint64_t zero_count, double sum, double min,
                       double max, const Bins& positive_bins,
                       const Bins& negative_bins) {
  Digest d;
  d.zero_ = zero_count;
  d.count_ = zero_count;
  for (const auto& [k, c] : positive_bins) {
    d.pos_.add(k, c);
    d.count_ += c;
  }
  for (const auto& [k, c] : negative_bins) {
    d.neg_.add(k, c);
    d.count_ += c;
  }
  if (d.count_ > 0) {
    d.sum_ = sum;
    d.min_ = min;
    d.max_ = max;
  }
  return d;
}

void Digest::merge(const Digest& other) {
  if (other.count_ == 0) return;
  count_ += other.count_;
  zero_ += other.zero_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  pos_.add_all(other.pos_);
  neg_.add_all(other.neg_);
}

double Digest::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Pinned endpoints (same convention as measure::Cdf): the extremes are
  // tracked exactly, so don't settle for a bucket midpoint there.
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  const auto clamp_range = [this](double v) noexcept {
    return std::clamp(v, min_, max_);
  };
  std::uint64_t seen = 0;
  // Ascending value order: most-negative first (negative buckets by
  // descending magnitude key), then zeros, then positives ascending.
  const std::vector<std::uint64_t>& neg = neg_.counts();
  for (std::size_t i = neg.size(); i-- > 0;) {
    seen += neg[i];
    if (seen > rank) return clamp_range(-bucket_value(neg_.key_at(i)));
  }
  seen += zero_;
  if (seen > rank) return clamp_range(0.0);
  const std::vector<std::uint64_t>& pos = pos_.counts();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    seen += pos[i];
    if (seen > rank) return clamp_range(bucket_value(pos_.key_at(i)));
  }
  return max();
}

}  // namespace fiveg::obs
