// Named counters/gauges/digests for the observability layer. One
// MetricsRegistry exists per experiment run (installed into the thread's
// obs::Scope by the Runner); instrumented layers fetch stable handles once
// and bump them with plain non-atomic stores, so the enabled path is a few
// instructions and the disabled path is a null-pointer check.
//
// Metrics are split by clock domain: kSim metrics are pure functions of the
// simulation (byte-identical across --jobs values and part of the
// fiveg-runall/v5 `counters` object), while kWall metrics carry wall-clock
// profiling data and are excluded from determinism diffs, exactly like
// ExperimentResult::wall_ms.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/digest.h"

namespace fiveg::obs {

/// Which clock domain a metric derives from (see file comment).
enum class MetricClock { kSim, kWall };

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written value plus a high-water mark (for queue depths etc.).
class Gauge {
 public:
  void set(double v) noexcept {
    value_ = v;
    update_max(v);
  }

  /// Raises the high-water mark without touching the current value.
  void update_max(double v) noexcept {
    if (v > max_) max_ = v;
  }

  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] double max() const noexcept {
    return max_ == kUnset ? 0.0 : max_;
  }

  /// Folds another gauge in: the other's value wins (last writer in merge
  /// order) and the high-water mark widens. A never-written gauge leaves
  /// this one untouched.
  void merge(const Gauge& other) noexcept {
    if (other.max_ == kUnset) return;
    value_ = other.value_;
    update_max(other.max_);
  }

 private:
  static constexpr double kUnset = -std::numeric_limits<double>::infinity();
  double value_ = 0.0;
  double max_ = kUnset;
};

/// One metric dimension, e.g. {"rat", "nr"} or {"cell", "72"}. Keys and
/// values must not contain '{', '}', '=' or ',' (they are embedded into the
/// canonical metric name).
using Label = std::pair<std::string_view, std::string>;

/// Canonical name for a labeled metric: `name{k1=v1,k2=v2}` with labels
/// sorted by key, so the same dimension set always produces the same
/// registry entry regardless of call-site order. Dimensional metrics are
/// plain registry entries under their canonical name — handles, snapshots
/// and the JSON emitters all work on them unchanged.
[[nodiscard]] std::string labeled(std::string_view name,
                                  std::initializer_list<Label> labels);

/// Flattened view of one metric, for reports and the JSON emitter. The
/// emitters expand one snapshot into one or more "name" / "name.max" /
/// "name.p99"-style flat keys.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kDigest };

  std::string name;
  Kind kind = Kind::kCounter;
  MetricClock clock = MetricClock::kSim;
  // kCounter / kGauge current value; digest mean.
  double value = 0.0;
  // kGauge high-water / kDigest max.
  double max = 0.0;
  // kDigest only, through `zero_count`: moments, the percentile ladder
  // reports are built from, and the log-gamma buckets as sparse
  // (key, count) pairs.
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double p05 = 0.0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  Bins bins;
  Bins neg_bins;
  std::uint64_t zero_count = 0;
};

/// Flattens one live metric into a MetricSnapshot — the single code path
/// both MetricsRegistry::snapshot() and the columnar result store's
/// reconstruction use, so a digest decoded from stored bucket
/// columns snapshots bit-identically to the original (same mean division,
/// same quantile walk).
[[nodiscard]] MetricSnapshot snapshot_of(const std::string& name,
                                         MetricClock clock, const Counter& c);
[[nodiscard]] MetricSnapshot snapshot_of(const std::string& name,
                                         MetricClock clock, const Gauge& g);
[[nodiscard]] MetricSnapshot snapshot_of(const std::string& name,
                                         MetricClock clock, const Digest& d);

/// The deterministic order MetricsRegistry::snapshot() returns: by name,
/// kind breaking ties. Reconstruction paths sort with the same comparator
/// so rebuilt snapshot vectors are element-for-element identical.
void sort_snapshots(std::vector<MetricSnapshot>* snaps);

/// Registry of named metrics for one experiment run. Handle references stay
/// valid for the registry's lifetime (node-based storage). Single-threaded
/// by design: each experiment worker owns its own registry, which is what
/// keeps kSim metrics deterministic without atomics.
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-unique and never reused, unlike the registry's address: a
  /// handle cache keyed on it cannot mistake a later registry for this one.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Finds or creates. The clock domain is fixed on first use; later calls
  /// with a different clock keep the original (first writer wins).
  Counter& counter(std::string_view name,
                   MetricClock clock = MetricClock::kSim);
  Gauge& gauge(std::string_view name, MetricClock clock = MetricClock::kSim);
  Digest& digest(std::string_view name, MetricClock clock = MetricClock::kSim);

  /// Dimensional variants: `counter("x", {{"rat", "nr"}})` is exactly
  /// `counter(labeled("x", {{"rat", "nr"}}))`. Fetch handles once per
  /// label combination — the canonical-name build allocates.
  Counter& counter(std::string_view name, std::initializer_list<Label> labels,
                   MetricClock clock = MetricClock::kSim) {
    return counter(labeled(name, labels), clock);
  }
  Gauge& gauge(std::string_view name, std::initializer_list<Label> labels,
               MetricClock clock = MetricClock::kSim) {
    return gauge(labeled(name, labels), clock);
  }
  Digest& digest(std::string_view name, std::initializer_list<Label> labels,
                 MetricClock clock = MetricClock::kSim) {
    return digest(labeled(name, labels), clock);
  }

  /// All metrics of one clock domain, sorted by (name, kind) so reports and
  /// JSON are byte-stable.
  [[nodiscard]] std::vector<MetricSnapshot> snapshot(MetricClock clock) const;

  /// Folds every metric of `other` into this registry, creating entries as
  /// needed (new entries keep the source's clock; existing entries keep
  /// their own, first-writer-wins like find-or-create). Counters and
  /// digest buckets add; gauges take the source value and widen
  /// their high-water mark. sim::ParSim merges per-lane registries in
  /// lane-index order, so the result is a pure function of lane contents,
  /// never of thread scheduling.
  void merge_from(const MetricsRegistry& other);

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + digests_.size();
  }

 private:
  template <typename T>
  struct Slot {
    T metric;
    MetricClock clock;
  };

  std::uint64_t id_;
  // std::map: stable node addresses across inserts (handles are cached by
  // the instrumented layers).
  std::map<std::string, Slot<Counter>, std::less<>> counters_;
  std::map<std::string, Slot<Gauge>, std::less<>> gauges_;
  std::map<std::string, Slot<Digest>, std::less<>> digests_;
};

}  // namespace fiveg::obs
