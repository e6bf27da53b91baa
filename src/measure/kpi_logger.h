// The XCAL-Mobile substitute: a passive logger that the simulated stack
// feeds with physical-layer KPIs (RSRP, RSRQ, SINR, CQI, MCS, PRBs, …) and
// control-plane signalling events (RRC reconfigurations, hand-off legs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "measure/timeseries.h"
#include "sim/time.h"

namespace fiveg::measure {

/// One control-plane signalling record.
struct SignalingEvent {
  sim::Time at;
  std::string type;     // e.g. "A3_TRIGGER", "LTE_RACH", "NR_RACH_SUCCESS"
  std::string detail;   // free-form, e.g. "pci=72 -> pci=44"
};

/// Cross-layer measurement log, keyed by KPI name.
///
/// The logger caps the number of DISTINCT series it will create
/// (kSeriesCap): city-scale cohorts must aggregate into labeled obs
/// digests, and a per-UE naming bug (e.g. "rsrp_ue_4711") would
/// otherwise silently mint one series per UE. Observations for a
/// new KPI beyond the cap are dropped (a one-time stderr warning), while
/// existing series keep growing.
class KpiLogger {
 public:
  /// Max number of distinct KPI series this logger will create.
  static constexpr std::size_t kSeriesCap = 1024;

  /// Appends a numeric KPI observation. Dropped (with a one-time warning)
  /// if `kpi` is new and the logger already holds kSeriesCap series.
  void log(const std::string& kpi, sim::Time at, double value);

  /// Appends a signalling event.
  void log_event(sim::Time at, std::string type, std::string detail = {});

  /// Series for one KPI, or nothing if that KPI was never logged. The
  /// empty case is explicit, and the reference (when present) always
  /// points into THIS logger. (The old series() accessor — which aliased
  /// every never-logged KPI to one shared empty series — is gone; new
  /// instrumentation should prefer the obs layer, obs::metrics() /
  /// obs::tracer(), over growing this logger.)
  [[nodiscard]] std::optional<std::reference_wrapper<const TimeSeries>> find(
      const std::string& kpi) const;

  /// True iff `kpi` has at least one logged observation.
  [[nodiscard]] bool has(const std::string& kpi) const {
    return series_.find(kpi) != series_.end();
  }

  [[nodiscard]] const std::vector<SignalingEvent>& events() const noexcept {
    return events_;
  }

  /// Events of one type, in time order.
  [[nodiscard]] std::vector<SignalingEvent> events_of_type(
      const std::string& type) const;

  /// All KPI names seen so far, sorted.
  [[nodiscard]] std::vector<std::string> kpi_names() const;

  /// Observations dropped because their (new) KPI hit the series cap.
  [[nodiscard]] std::uint64_t refused_observations() const noexcept {
    return refused_;
  }

 private:
  std::map<std::string, TimeSeries> series_;
  std::vector<SignalingEvent> events_;
  std::uint64_t refused_ = 0;
  bool warned_ = false;
};

}  // namespace fiveg::measure
