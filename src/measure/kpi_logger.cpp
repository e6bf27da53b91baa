#include "measure/kpi_logger.h"

#include <cstdio>
#include <utility>

namespace fiveg::measure {

void KpiLogger::log(const std::string& kpi, sim::Time at, double value) {
  const auto it = series_.find(kpi);
  if (it != series_.end()) {
    it->second.add(at, value);
    return;
  }
  if (series_.size() >= kSeriesCap) {
    ++refused_;
    if (!warned_) {
      warned_ = true;
      std::fprintf(stderr,
                   "KpiLogger: series cap (%zu) reached; dropping new KPI "
                   "\"%s\" (aggregate per-UE KPIs into obs digests instead)\n",
                   kSeriesCap, kpi.c_str());
    }
    return;
  }
  series_[kpi].add(at, value);
}

void KpiLogger::log_event(sim::Time at, std::string type, std::string detail) {
  events_.push_back({at, std::move(type), std::move(detail)});
}

std::optional<std::reference_wrapper<const TimeSeries>> KpiLogger::find(
    const std::string& kpi) const {
  const auto it = series_.find(kpi);
  if (it == series_.end()) return std::nullopt;
  return std::cref(it->second);
}

std::vector<SignalingEvent> KpiLogger::events_of_type(
    const std::string& type) const {
  std::vector<SignalingEvent> out;
  for (const SignalingEvent& e : events_) {
    if (e.type == type) out.push_back(e);
  }
  return out;
}

std::vector<std::string> KpiLogger::kpi_names() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, unused] : series_) names.push_back(name);
  return names;
}

}  // namespace fiveg::measure
