#include "common.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/prof.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double lapwise_quantile(const std::vector<std::vector<double>>& laps,
                        double q) {
  if (laps.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t k = 0; k < laps.front().size(); ++k) {
    std::vector<double> lap;
    for (const std::vector<double>& iteration : laps) {
      if (k < iteration.size()) lap.push_back(iteration[k]);
    }
    total += quantile(std::move(lap), q);
  }
  return total;
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::uniform(double lo, double hi) {
  // 53 random mantissa bits -> [0, 1).
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

std::uint64_t InputRng::below(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("InputRng::below(0)");
  return next() % n;  // bias < 2^-40 for the small n used here
}

void Checksum::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 1099511628211ULL;
  }
}

void Checksum::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

void Checksum::add(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  add(static_cast<std::uint64_t>(s.size()));
}

std::string Checksum::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void Checks::require(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

void check_repeat(Checks& checks, std::string& expected, const Checksum& got,
                  std::size_t iteration, Sabotage sabotage) {
  Checksum c = got;
  if (sabotage == Sabotage::kChecksum && iteration > 0) c.add(iteration);
  if (expected.empty()) {
    expected = c.hex();
    return;
  }
  checks.require(c.hex() == expected, "iteration " + std::to_string(iteration) +
                                          " checksum " + c.hex() +
                                          " != first iteration's " + expected);
}

CpuRotation::CpuRotation(bool enabled) {
  CPU_ZERO(&original_);
  if (!enabled || sched_getaffinity(0, sizeof original_, &original_) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotation::pin(std::size_t iteration) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[iteration % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);  // best effort: a refusal only
                                           // leaves the thread unpinned
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_specs() {
  static const std::vector<std::pair<std::string, std::string>> specs = {
      // sim: the event core.
      {"sim.events", "count"},
      {"sim.events_cancelled", "count"},
      {"sim.heap_allocs_per_event", "ratio"},
      {"sim.queue_depth_hwm", "count"},
      {"sim.loop_self_ms", "ms"},
      // net: links, queues, the path.
      {"net.link_tx.events", "count"},
      {"net.link_tx.ms", "ms"},
      {"net.link_deliver.events", "count"},
      {"net.link_deliver.ms", "ms"},
      {"net.send_us_per_call", "us"},
      {"net.drops", "count"},
      {"net.marks", "count"},
      {"net.queue_hwm_bytes", "bytes"},
      // tcp: senders and receivers.
      {"tcp.pace.events", "count"},
      {"tcp.pace.ms", "ms"},
      {"tcp.pace.mean_us", "us"},
      {"tcp.rto.events", "count"},
      {"tcp.ack_us_per_call", "us"},
      {"tcp.retransmissions", "count"},
      {"tcp.timeouts", "count"},
      // geo / radio / ran: the UE cohort sweep.
      {"ran.cohort_sweep.events", "count"},
      {"ran.cohort_sweep.ms", "ms"},
      {"geo.advance_ms", "ms"},
      {"radio.measure_ms", "ms"},
      {"ran.trigger_ms", "ms"},
      {"ran.row_reuse_ratio", "ratio"},
      {"ran.handoffs", "count"},
      // sim.parsim: lock-step windows.
      {"sim.parsim.windows", "count"},
      {"sim.parsim.window_mean_us", "us"},
      // core / store / report: the campaign machinery.
      {"core.phase.construct_ms", "ms"},
      {"core.phase.simulate_ms", "ms"},
      {"core.phase.report_ms", "ms"},
      {"core.label_ms.net", "ms"},
      {"core.label_ms.tcp", "ms"},
      {"core.label_ms.ran", "ms"},
      {"core.label_ms.fault", "ms"},
      {"core.label_ms.aqm", "ms"},
      {"store.write_ms", "ms"},
      {"store.bytes", "bytes"},
      {"store.load_ms", "ms"},
      {"store.merge_ms", "ms"},
      {"report.build_ms", "ms"},
      {"ledger.bytes", "bytes"},
      {"ledger.load_ms", "ms"},
      // obs: what the traced run itself costs.
      {"obs.trace_overhead_pct", "%"},
  };
  return specs;
}

const std::vector<std::pair<std::string, std::string>>&
end_to_end_metric_specs() {
  static const std::vector<std::pair<std::string, std::string>> specs = {
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"units_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

LayerTable::LayerTable() {
  for (const auto& [name, unit] : layer_metric_specs()) values_[name] = 0.0;
}

void LayerTable::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("perfbench: unknown layer metric " + name);
  }
  it->second = value;
}

void LayerTable::add(const std::string& name, double value) {
  set(name, get(name) + value);
}

void LayerTable::max(const std::string& name, double value) {
  set(name, std::max(get(name), value));
}

double LayerTable::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("perfbench: unknown layer metric " + name);
  }
  return it->second;
}

std::vector<Metric> LayerTable::rows() const {
  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_metric_specs()) {
    out.push_back({name, values_.at(name), unit});
  }
  return out;
}

void LayerTable::add_profile(
    const std::vector<fiveg::obs::MetricSnapshot>& wall,
    const std::vector<fiveg::obs::MetricSnapshot>& sim) {
  namespace prof = fiveg::obs::prof;
  static const char* const kLabels[] = {"net.link_tx", "net.link_deliver",
                                        "tcp.pace", "tcp.rto",
                                        "ran.cohort_sweep"};
  static const char* const kPrefixes[] = {"net", "tcp", "ran", "fault", "aqm"};
  for (const prof::LabelRow& row : prof::label_rows(wall)) {
    callback_ms_ += row.total_ms;
    for (const char* label : kLabels) {
      if (row.label != label) continue;
      add(row.label + ".events", static_cast<double>(row.events));
      if (values_.count(row.label + ".ms") != 0) {
        add(row.label + ".ms", row.total_ms);
      }
    }
    const std::string prefix = row.label.substr(0, row.label.find('.'));
    for (const char* p : kPrefixes) {
      if (prefix == p) add("core.label_ms." + prefix, row.total_ms);
    }
  }
  const prof::Summary summary = prof::summarize(wall);
  add("core.phase.construct_ms", summary.construct_ms);
  add("core.phase.simulate_ms", summary.simulate_ms);
  add("core.phase.report_ms", summary.report_ms);
  add("sim.events_cancelled", static_cast<double>(summary.events_cancelled));
  scheduled_ += static_cast<double>(summary.events_scheduled);
  heap_allocs_ += static_cast<double>(summary.heap_allocs);
  for (const fiveg::obs::MetricSnapshot& m : sim) {
    if (m.name == "sim.events") add("sim.events", m.value);
    if (m.name == "sim.queue_depth_hwm") max("sim.queue_depth_hwm", m.max);
  }
}

void LayerTable::finish() {
  set("sim.heap_allocs_per_event", scheduled_ > 0 ? heap_allocs_ / scheduled_
                                                  : 0.0);
  const double pace_events = get("tcp.pace.events");
  set("tcp.pace.mean_us",
      pace_events > 0 ? get("tcp.pace.ms") * 1e3 / pace_events : 0.0);
  // Time run_until spent outside every callback: queue pops, clock
  // advance, profiler bookkeeping (and, under ParSim, barrier waits minus
  // lane overlap, so it can go negative there).
  set("sim.loop_self_ms", get("core.phase.simulate_ms") - callback_ms_);
}

std::string format_double(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
