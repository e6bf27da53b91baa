#include "obs/prof.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/obs.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace fiveg::obs::prof {

std::uint64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;
#else
  // Linux reports ru_maxrss in kB already.
  return static_cast<std::uint64_t>(ru.ru_maxrss);
#endif
#else
  return 0;
#endif
}

std::uint64_t current_rss_kb() {
#if defined(__linux__)
  // /proc/self/statm: size resident shared text lib data dt (pages).
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(page) / 1024;
#else
  return 0;
#endif
}

ScopedPhase::ScopedPhase(const char* phase) {
  MetricsRegistry* m = metrics();
  if (m == nullptr) return;
  std::string name = kPhasePrefix;
  name += phase;
  digest_ = &m->digest(name, MetricClock::kWall);
  start_ = std::chrono::steady_clock::now();
}

ScopedPhase::~ScopedPhase() {
  if (digest_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  digest_->observe(
      std::chrono::duration<double, std::milli>(elapsed).count());
}

namespace {

/// Digest snapshots whose name starts with `prefix`, as (suffix, snap).
template <typename Fn>
void for_each_with_prefix(const std::vector<MetricSnapshot>& wall,
                          const char* prefix, Fn&& fn) {
  const std::size_t len = std::strlen(prefix);
  for (const MetricSnapshot& s : wall) {
    if (s.kind != MetricSnapshot::Kind::kDigest) continue;
    if (s.name.compare(0, len, prefix) != 0) continue;
    fn(s.name.substr(len), s);
  }
}

std::uint64_t counter_value(const std::vector<MetricSnapshot>& wall,
                            const char* name) {
  for (const MetricSnapshot& s : wall) {
    if (s.kind == MetricSnapshot::Kind::kCounter && s.name == name) {
      return static_cast<std::uint64_t>(s.value);
    }
  }
  return 0;
}

double gauge_value(const std::vector<MetricSnapshot>& wall,
                   const char* name) {
  for (const MetricSnapshot& s : wall) {
    if (s.kind == MetricSnapshot::Kind::kGauge && s.name == name) {
      return s.value;
    }
  }
  return 0.0;
}

}  // namespace

std::vector<PhaseRow> phase_rows(const std::vector<MetricSnapshot>& wall) {
  std::vector<PhaseRow> rows;
  for_each_with_prefix(wall, kPhasePrefix,
                       [&rows](std::string phase, const MetricSnapshot& s) {
                         PhaseRow row;
                         row.phase = std::move(phase);
                         row.count = s.count;
                         row.total_ms = s.sum;
                         rows.push_back(std::move(row));
                       });
  std::sort(rows.begin(), rows.end(), [](const PhaseRow& a, const PhaseRow& b) {
    if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
    return a.phase < b.phase;
  });
  return rows;
}

std::vector<LabelRow> label_rows(const std::vector<MetricSnapshot>& wall) {
  std::vector<LabelRow> rows;
  for_each_with_prefix(wall, kLabelPrefix,
                       [&rows](std::string label, const MetricSnapshot& s) {
                         LabelRow row;
                         row.label = std::move(label);
                         row.events = s.count;
                         row.total_ms = s.sum / 1000.0;
                         row.mean_us = s.count > 0 ? s.sum / static_cast<double>(
                                                                s.count)
                                                   : 0.0;
                         rows.push_back(std::move(row));
                       });
  std::sort(rows.begin(), rows.end(), [](const LabelRow& a, const LabelRow& b) {
    if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
    return a.label < b.label;
  });
  return rows;
}

Summary summarize(const std::vector<MetricSnapshot>& wall) {
  Summary out;
  for (const PhaseRow& row : phase_rows(wall)) {
    if (row.phase == "construct") out.construct_ms = row.total_ms;
    if (row.phase == "simulate") out.simulate_ms = row.total_ms;
    if (row.phase == "report") out.report_ms = row.total_ms;
  }
  out.events_scheduled = counter_value(wall, kScheduledMetric);
  out.events_cancelled = counter_value(wall, kCancelledMetric);
  out.heap_allocs = counter_value(wall, kHeapAllocMetric);
  out.peak_rss_kb = static_cast<std::uint64_t>(gauge_value(wall, kPeakRssMetric));
  const std::vector<LabelRow> labels = label_rows(wall);
  if (!labels.empty()) {
    out.top_label = labels.front().label;
    out.top_label_ms = labels.front().total_ms;
  }
  return out;
}

double heap_allocs_per_event(const Summary& s) {
  return s.events_scheduled > 0 ? static_cast<double>(s.heap_allocs) /
                                      static_cast<double>(s.events_scheduled)
                                : 0.0;
}

}  // namespace fiveg::obs::prof
