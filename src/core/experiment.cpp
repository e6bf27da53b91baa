#include "core/experiment.h"

#include <algorithm>
#include <ostream>
#include <memory>
#include <stdexcept>

namespace fiveg::core {

namespace {

void ensure_registered() {
  static const bool once = [] {
    register_coverage_experiments();
    register_handoff_experiments();
    register_throughput_experiments();
    register_latency_experiments();
    register_app_experiments();
    register_energy_experiments();
    register_ablation_experiments();
    register_extension_experiments();
    register_aqm_experiments();
    register_city_experiments();
    return true;
  }();
  (void)once;
}

}  // namespace

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
  static ExperimentRegistry registry;
  return registry;
}

void ExperimentRegistry::add(Factory factory) {
  const std::string name = factory()->name();
  for (const Entry& e : entries_) {
    if (e.name == name) {
      throw std::invalid_argument("duplicate experiment name: " + name);
    }
  }
  entries_.push_back({name, std::move(factory)});
}

std::unique_ptr<Experiment> ExperimentRegistry::create(
    const std::string& name) const {
  ensure_registered();
  for (const Entry& e : entries_) {
    if (e.name == name) return e.factory();
  }
  return nullptr;
}

void print_banner(const Experiment& exp, std::uint64_t seed,
                  std::ostream& os) {
  os << "### " << exp.name() << " — reproduces " << exp.paper_ref()
     << "\n### " << exp.description() << "\n### seed " << seed << "\n\n";
}

bool ExperimentRegistry::run(const std::string& name,
                             const ExperimentContext& ctx) {
  const auto exp = create(name);
  if (exp == nullptr) return false;
  print_banner(*exp, ctx.seed, *ctx.out);
  exp->run(ctx);
  return true;
}

std::vector<std::string> ExperimentRegistry::names() const {
  ensure_registered();
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fiveg::core
