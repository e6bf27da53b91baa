// Experiment framework: every reproduced table/figure is an ExperimentSpec
// registered by name, and fiveg_runall runs it by name. The output is a
// text table with the paper's values printed beside ours, plus an optional
// structured result (status, wall-clock, named metric series) consumed by
// the parallel Runner and the JSON emitter.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace fiveg::obs {
class Tracer;
}  // namespace fiveg::obs

namespace fiveg::core {

/// Terminal state of one experiment run.
enum class RunStatus {
  kOk,        // ran to completion
  kFailed,    // threw; `error` holds the message
  kTimedOut,  // exceeded the per-experiment timeout; abandoned
};

[[nodiscard]] std::string_view to_string(RunStatus status);

/// One (x, y) sample of a named metric.
struct MetricPoint {
  double x = 0;
  double y = 0;
};

/// A named key/value series recorded by an experiment, e.g. the measured
/// coverage-hole fraction or a per-algorithm utilisation sweep.
struct MetricSeries {
  std::string name;
  std::string unit;  // free-form: "%", "Mbps", "ms", ...
  std::vector<MetricPoint> points;
};

/// Machine-readable outcome of one experiment run. Filled by the Runner;
/// experiments append to `metrics` through ExperimentContext::metric().
struct ExperimentResult {
  std::string name;
  std::string paper_ref;
  std::string description;
  RunStatus status = RunStatus::kOk;
  std::string error;       // nonempty iff status != kOk
  std::uint64_t seed = 0;  // the per-experiment forked seed actually used
  double wall_ms = 0;      // wall-clock, excluded from determinism checks
  // Process-wide peak RSS (kB) sampled when the run completed; like
  // wall_ms it is execution-domain data, excluded from determinism checks.
  // Under --jobs N the high-water mark is shared by the whole worker pool.
  std::uint64_t peak_rss_kb = 0;
  std::string text;        // the captured text-table output
  std::vector<MetricSeries> metrics;
  // Observability capture (see src/obs/). `counters` holds the kSim-clock
  // snapshot: deterministic, part of the fiveg-runall/v5 document.
  // `profile` holds the kWall-clock snapshot: wall-clock profiling data,
  // emitted only when timing is on (like wall_ms). `trace` is the
  // experiment's event trace, non-null only when tracing was requested.
  std::vector<obs::MetricSnapshot> counters;
  std::vector<obs::MetricSnapshot> profile;
  std::shared_ptr<obs::Tracer> trace;
};

/// Everything an experiment run needs.
struct ExperimentContext {
  std::uint64_t seed = 42;
  std::ostream* out = nullptr;         // never null when run via the Runner
  ExperimentResult* result = nullptr;  // null when structured capture is off
  // Worker threads this experiment may give sim::ParSim (>= 1; the
  // Runner's --sim-threads budget after the inter/intra split). Thread
  // count never affects output, so experiments pass it straight through
  // to ParSimConfig::threads.
  int sim_threads = 1;

  /// Records a scalar sample of `series` (x = running sample index).
  /// No-op when `result` is null, so experiments record unconditionally.
  void metric(std::string_view series, double value,
              std::string_view unit = "") const;

  /// Records an (x, y) sample of `series`, e.g. a sweep point.
  void metric_point(std::string_view series, double x, double y,
                    std::string_view unit = "") const;
};

/// One reproducible table/figure: which paper artifact it regenerates and
/// the body that regenerates it.
struct ExperimentSpec {
  std::string name;       // stable id, e.g. "fig7_throughput"
  std::string paper_ref;  // the paper artifact, e.g. "Figure 7"
  std::string description;
  // True for experiments cheap enough for the CI smoke tier (sub-second to
  // a few seconds). The default is the full tier.
  bool smoke = false;
  std::function<void(const ExperimentContext&)> run;
};

/// The experiment table. The global instance holds every experiment of the
/// paper; tests build local registries of synthetic specs.
class ExperimentRegistry {
 public:
  static ExperimentRegistry& instance();

  /// Throws std::invalid_argument if an experiment with the same name is
  /// already registered.
  void add(ExperimentSpec spec);

  /// The named experiment, or null if unknown. Valid until the next add().
  [[nodiscard]] const ExperimentSpec* find(std::string_view name) const;

  /// All registered experiment names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::vector<ExperimentSpec> specs_;
};

/// Registration hooks, one per experiments translation unit; the global
/// instance calls each once when it is first used.
void register_coverage_experiments(ExperimentRegistry& reg);
void register_handoff_experiments(ExperimentRegistry& reg);
void register_throughput_experiments(ExperimentRegistry& reg);
void register_latency_experiments(ExperimentRegistry& reg);
void register_app_experiments(ExperimentRegistry& reg);
void register_energy_experiments(ExperimentRegistry& reg);
void register_ablation_experiments(ExperimentRegistry& reg);
void register_extension_experiments(ExperimentRegistry& reg);
void register_aqm_experiments(ExperimentRegistry& reg);
void register_city_experiments(ExperimentRegistry& reg);

/// Prints the standard "### name — reproduces ..." banner that precedes
/// every experiment's tables.
void print_banner(const ExperimentSpec& spec, std::uint64_t seed,
                  std::ostream& os);

}  // namespace fiveg::core
