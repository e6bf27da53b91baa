#include "obs/metrics.h"

#include <algorithm>
#include <atomic>

namespace fiveg::obs {

std::string labeled(std::string_view name,
                    std::initializer_list<Label> labels) {
  // No labels -> the plain name: "x" and labeled("x", {}) must be the
  // same series, not "x" vs "x{}".
  if (labels.size() == 0) return std::string(name);
  std::vector<const Label*> sorted;
  sorted.reserve(labels.size());
  for (const Label& l : labels) sorted.push_back(&l);
  std::sort(sorted.begin(), sorted.end(),
            [](const Label* a, const Label* b) { return a->first < b->first; });
  std::string out(name);
  out += '{';
  bool first = true;
  for (const Label* l : sorted) {
    if (!first) out += ',';
    first = false;
    out += l->first;
    out += '=';
    out += l->second;
  }
  out += '}';
  return out;
}

MetricSnapshot snapshot_of(const std::string& name, MetricClock clock,
                           const Counter& c) {
  MetricSnapshot s;
  s.name = name;
  s.kind = MetricSnapshot::Kind::kCounter;
  s.clock = clock;
  s.value = static_cast<double>(c.value());
  s.count = c.value();
  return s;
}

MetricSnapshot snapshot_of(const std::string& name, MetricClock clock,
                           const Gauge& g) {
  MetricSnapshot s;
  s.name = name;
  s.kind = MetricSnapshot::Kind::kGauge;
  s.clock = clock;
  s.value = g.value();
  s.max = g.max();
  return s;
}

MetricSnapshot snapshot_of(const std::string& name, MetricClock clock,
                           const Digest& d) {
  MetricSnapshot s;
  s.name = name;
  s.kind = MetricSnapshot::Kind::kDigest;
  s.clock = clock;
  s.value = d.mean();
  s.count = d.count();
  s.sum = d.sum();
  s.min = d.min();
  s.max = d.max();
  s.p05 = d.quantile(0.05);
  s.p25 = d.quantile(0.25);
  s.p50 = d.quantile(0.50);
  s.p75 = d.quantile(0.75);
  s.p90 = d.quantile(0.90);
  s.p95 = d.quantile(0.95);
  s.p99 = d.quantile(0.99);
  s.zero_count = d.zero_count();
  s.bins = d.positive_bins();
  s.neg_bins = d.negative_bins();
  return s;
}

void sort_snapshots(std::vector<MetricSnapshot>* snaps) {
  std::sort(snaps->begin(), snaps->end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
}

namespace {

template <typename Map, typename Metric>
Metric& find_or_create(Map& map, std::string_view name, MetricClock clock) {
  const auto it = map.find(name);
  if (it != map.end()) return it->second.metric;
  return map.emplace(std::string(name), typename Map::mapped_type{{}, clock})
      .first->second.metric;
}

}  // namespace

MetricsRegistry::MetricsRegistry() {
  static std::atomic<std::uint64_t> next_id{1};
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(std::string_view name, MetricClock clock) {
  return find_or_create<decltype(counters_), Counter>(counters_, name, clock);
}

Gauge& MetricsRegistry::gauge(std::string_view name, MetricClock clock) {
  return find_or_create<decltype(gauges_), Gauge>(gauges_, name, clock);
}

Digest& MetricsRegistry::digest(std::string_view name, MetricClock clock) {
  return find_or_create<decltype(digests_), Digest>(digests_, name, clock);
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, slot] : other.counters_) {
    counter(name, slot.clock).add(slot.metric.value());
  }
  for (const auto& [name, slot] : other.gauges_) {
    gauge(name, slot.clock).merge(slot.metric);
  }
  for (const auto& [name, slot] : other.digests_) {
    digest(name, slot.clock).merge(slot.metric);
  }
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot(
    MetricClock clock) const {
  std::vector<MetricSnapshot> out;
  out.reserve(size());
  for (const auto& [name, slot] : counters_) {
    if (slot.clock != clock) continue;
    out.push_back(snapshot_of(name, slot.clock, slot.metric));
  }
  for (const auto& [name, slot] : gauges_) {
    if (slot.clock != clock) continue;
    out.push_back(snapshot_of(name, slot.clock, slot.metric));
  }
  for (const auto& [name, slot] : digests_) {
    if (slot.clock != clock) continue;
    out.push_back(snapshot_of(name, slot.clock, slot.metric));
  }
  // The three maps are each sorted; merge-sort the concatenation by name
  // (kind breaks ties) so the combined view is byte-stable.
  sort_snapshots(&out);
  return out;
}

}  // namespace fiveg::obs
