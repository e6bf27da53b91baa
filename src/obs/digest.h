// Streaming quantile digest with a fixed relative-error guarantee: the one
// distribution sketch of the observability layer. Buckets are logarithmic
// with ratio gamma = (1+a)/(1-a) for accuracy a = 1% (the DDSketch
// construction): any reported quantile lies within 1% of the true sample
// value. Bucket counts are a pure function of the observed multiset — no
// reservoirs, no interpolation state — so two runs that observe the same
// values in any order serialise byte-identically, which is what lets the
// fiveg-runall determinism tier diff digest exports across --jobs values.
//
// Negative values land in a mirrored set of buckets and near-zero values
// in a dedicated zero bucket, so signed KPIs (RSRP in dBm, RSRQ in dB) keep
// the same error bound as latencies and rates. Each sign keeps its counts
// in one flat array over the key range it has touched, grown geometrically
// at either end, so an observation is a log and an array increment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace fiveg::obs {

/// Sparse (bucket key, count) pairs in ascending key order, nonzero counts
/// only: the export form of a Digest's buckets, which snapshots, the store
/// codec and fiveg_query read.
using Bins = std::vector<std::pair<std::int32_t, std::uint64_t>>;

/// Fixed-relative-error streaming quantile sketch (mergeable, ordered
/// deterministically). Memory is O(key range touched): with 1% accuracy a
/// series spanning six decades covers ~700 keys, at most twice that many
/// counters after geometric growth.
class Digest {
 public:
  /// Relative accuracy: quantiles are within this fraction of the true
  /// order statistic (for |v| >= kZeroEpsilon).
  static constexpr double kAlpha = 0.01;
  /// Magnitudes below this collapse into the zero bucket.
  static constexpr double kZeroEpsilon = 1e-12;
  /// Bucket keys are clamped to [-kMaxKey, kMaxKey], a span that covers
  /// every magnitude in [kZeroEpsilon, 1e300]; extreme outliers stay
  /// finite instead of overflowing the key.
  static constexpr std::int32_t kMaxKey = 40000;

  /// Adds one observation. NaN is ignored.
  void observe(double v) noexcept { observe(v, 1); }

  /// Records `weight` observations of `v` at once: the count and bucket
  /// grow by `weight`, the sum by `v * weight`. A sampler that times one
  /// event in n records the sample with the weight of the events it
  /// stands for, so the count stays exact and the sum is an estimate.
  void observe(double v, std::uint64_t weight) noexcept;

  /// Adds every bucket of `other` (exact: the merge of the two multisets).
  void merge(const Digest& other);

  /// Rebuilds a digest from its export surface (the inverse of
  /// positive_bins/negative_bins/zero_count plus the exact sum/min/max).
  /// `count` is implied: every observation lands in exactly one bucket, so
  /// it is the bucket-count total. A restored digest is indistinguishable
  /// from the original — same quantiles bit-for-bit, same serialization —
  /// which is what lets the columnar result store drop everything else.
  /// When the bucket total is zero, sum/min/max are ignored (empty digest).
  /// Keys outside [-kMaxKey, kMaxKey] are clamped, as observe() would.
  [[nodiscard]] static Digest restore(std::uint64_t zero_count, double sum,
                                      double min, double max,
                                      const Bins& positive_bins,
                                      const Bins& negative_bins);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Value at quantile q in [0,1] (rank floor(q*(count-1)) over the sorted
  /// multiset), within kAlpha relative error, clamped to [min, max]. The
  /// endpoints are pinned exactly — quantile(0) == min(), quantile(1) ==
  /// max(), the measure::Cdf convention — and q outside [0,1] is clamped.
  /// Returns 0 for an empty digest.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Export surface for the JSON emitters and the result store. A
  /// positive value v maps to key ceil(log(v) / log(gamma)); negative
  /// values mirror into `negative_bins` by magnitude.
  [[nodiscard]] Bins positive_bins() const { return pos_.nonzero(); }
  [[nodiscard]] Bins negative_bins() const { return neg_.nonzero(); }
  [[nodiscard]] std::uint64_t zero_count() const noexcept { return zero_; }

  /// Midpoint value represented by bucket `key` (positive side).
  [[nodiscard]] static double bucket_value(std::int32_t key) noexcept;
  /// Bucket key for a positive magnitude.
  [[nodiscard]] static std::int32_t bucket_key(double magnitude) noexcept;

 private:
  // Counts of one sign over the contiguous key range
  // [lo_, lo_ + counts_.size()).
  class Buckets {
   public:
    void add(std::int32_t key, std::uint64_t n);
    void add_all(const Buckets& other);
    [[nodiscard]] Bins nonzero() const;
    // Bucket key of counts()[i].
    [[nodiscard]] std::int32_t key_at(std::size_t i) const noexcept {
      return lo_ + static_cast<std::int32_t>(i);
    }
    [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept {
      return counts_;
    }

   private:
    std::int32_t lo_ = 0;
    std::vector<std::uint64_t> counts_;
  };

  std::uint64_t count_ = 0;
  std::uint64_t zero_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  Buckets pos_;
  Buckets neg_;
};

}  // namespace fiveg::obs
