#include "core/experiment.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace fiveg::core {

std::string_view to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kFailed:
      return "failed";
    case RunStatus::kTimedOut:
      return "timed_out";
  }
  return "unknown";
}

void ExperimentContext::metric(std::string_view series, double value,
                               std::string_view unit) const {
  if (result == nullptr) return;
  for (MetricSeries& s : result->metrics) {
    if (s.name == series) {
      s.points.push_back({static_cast<double>(s.points.size()), value});
      return;
    }
  }
  result->metrics.push_back(
      {std::string(series), std::string(unit), {{0.0, value}}});
}

void ExperimentContext::metric_point(std::string_view series, double x,
                                     double y, std::string_view unit) const {
  if (result == nullptr) return;
  for (MetricSeries& s : result->metrics) {
    if (s.name == series) {
      s.points.push_back({x, y});
      return;
    }
  }
  result->metrics.push_back(
      {std::string(series), std::string(unit), {{x, y}}});
}

ExperimentRegistry& ExperimentRegistry::instance() {
  static ExperimentRegistry registry = [] {
    ExperimentRegistry reg;
    register_coverage_experiments(reg);
    register_handoff_experiments(reg);
    register_throughput_experiments(reg);
    register_latency_experiments(reg);
    register_app_experiments(reg);
    register_energy_experiments(reg);
    register_ablation_experiments(reg);
    register_extension_experiments(reg);
    register_aqm_experiments(reg);
    register_city_experiments(reg);
    return reg;
  }();
  return registry;
}

void ExperimentRegistry::add(ExperimentSpec spec) {
  if (find(spec.name) != nullptr) {
    throw std::invalid_argument("duplicate experiment name: " + spec.name);
  }
  specs_.push_back(std::move(spec));
}

const ExperimentSpec* ExperimentRegistry::find(std::string_view name) const {
  for (const ExperimentSpec& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> ExperimentRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const ExperimentSpec& spec : specs_) out.push_back(spec.name);
  std::sort(out.begin(), out.end());
  return out;
}

void print_banner(const ExperimentSpec& spec, std::uint64_t seed,
                  std::ostream& os) {
  os << "### " << spec.name << " — reproduces " << spec.paper_ref
     << "\n### " << spec.description << "\n### seed " << seed << "\n\n";
}

}  // namespace fiveg::core
