// The iteration loop every workload shares. One iteration builds a fresh
// instance (the timed set-up), runs it (the timed phase, split into laps),
// then verifies its outputs untimed. Untraced iterations give the
// end-to-end numbers: wall_s is the lapwise lower quartile over the
// iterations (see kReportQuantile), setup_s the lower quartile of the
// set-ups, both divided by the host gauge's slowdown (see HostGauge),
// which samples between iterations. With --trace 1 the run is split in
// half, and the second half repeats the same inputs under an
// obs::ScopedObs (Tracer + MetricsRegistry) for the per-layer numbers and
// the tracing overhead.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "gauge.h"
#include "obs/obs.h"
#include "obs/prof.h"

namespace perfbench {

template <typename Instance>
struct Plan {
  // Builds one instance; `traced` switches the benchmark's call timers on.
  std::function<std::unique_ptr<Instance>(bool traced)> build;
  // The timed phase; it marks a lap wherever every iteration has done the
  // same work, a few tens of milliseconds apart where it can.
  std::function<void(Instance&, Laps&)> run;
  // Invariants go to `checks`; deterministic outputs go to `sum`.
  std::function<void(Instance&, Checks& checks, Checksum& sum)> verify;
  // Work units the iteration completed (packets, UE samples, runs).
  std::function<double(const Instance&)> units;
  // Traced only: the layer readings the benchmark measures itself.
  std::function<void(Instance&, LayerTable&)> layers;
  // Set-up repetitions per untraced iteration (the last one is run).
  int setup_reps = 1;
  std::size_t min_iterations = 2;
  // The campaign's Runner installs a scope per experiment itself, so the
  // loop must not install one around it.
  bool installs_own_scope = false;
  // Single-threaded workloads rotate their iterations over the CPUs (see
  // CpuRotation); a workload that starts worker threads must not, because
  // the workers would inherit a one-CPU mask.
  bool rotate_cpus = true;
};

// Trace ring size of a traced iteration: recording cost is paid per event
// whatever the size, and the ring only keeps the tail.
inline constexpr std::size_t kTraceCapacity = 1 << 16;

template <typename Instance>
void drive(const Options& opt, Plan<Instance>& plan, Outcome& out) {
  CpuRotation rotation(plan.rotate_cpus);
  HostGauge gauge;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Budget budget(untraced_s, plan.min_iterations);
  for (std::size_t i = 0; budget.more(i); ++i) {
    rotation.pin(i);
    std::unique_ptr<Instance> inst;
    for (int r = 0; r < plan.setup_reps; ++r) {
      inst.reset();
      const auto start = Clock::now();
      inst = plan.build(false);
      out.setup_s.push_back(seconds_since(start));
    }
    const auto start = Clock::now();
    Laps laps;
    plan.run(*inst, laps);
    out.wall_s.push_back(seconds_since(start));
    out.laps.push_back(laps.times());
    Checksum sum;
    plan.verify(*inst, out.checks, sum);
    check_repeat(out.checks, out.checksum, sum, i, opt.sabotage);
    out.checks.require(
        !laps.times().empty() &&
            laps.times().size() == out.laps.front().size(),
        "iteration " + std::to_string(i) + " ran " +
            std::to_string(laps.times().size()) + " laps, the first " +
            std::to_string(out.laps.front().size()));
    out.units = plan.units(*inst);
    out.iterations = i + 1;
    if (i == 0) out.peak_rss_kb = fiveg::obs::prof::peak_rss_kb();
    // About one gauge lap per 50 ms of timed phase, on the same CPU.
    gauge.sample(1 + static_cast<std::size_t>(out.wall_s.back() / 0.05));
  }
  out.host_slowdown = gauge.slowdown();
  out.gauge_digest = gauge.digest();
  if (!opt.trace) return;

  std::vector<LayerTable> tables;
  const Budget traced_budget(opt.seconds / 2, 1);
  for (std::size_t i = 0; traced_budget.more(i); ++i) {
    rotation.pin(i);
    fiveg::obs::Tracer tracer(kTraceCapacity);
    fiveg::obs::MetricsRegistry registry;
    std::unique_ptr<Instance> inst;  // destroyed before the scope objects
    {
      std::unique_ptr<fiveg::obs::ScopedObs> scope;
      if (!plan.installs_own_scope) {
        scope = std::make_unique<fiveg::obs::ScopedObs>(&tracer, &registry);
      }
      inst = plan.build(true);
      const auto start = Clock::now();
      Laps laps;
      plan.run(*inst, laps);
      out.traced_wall_s.push_back(seconds_since(start));
    }
    Checksum sum;
    plan.verify(*inst, out.checks, sum);
    out.checks.require(sum.hex() == out.checksum,
                       "traced checksum " + sum.hex() +
                           " != untraced checksum " + out.checksum);
    out.traced_checksum = sum.hex();
    LayerTable table;
    if (!plan.installs_own_scope) {
      table.add_profile(registry.snapshot(fiveg::obs::MetricClock::kWall),
                        registry.snapshot(fiveg::obs::MetricClock::kSim));
    }
    plan.layers(*inst, table);
    table.finish();
    tables.push_back(std::move(table));
    out.traced_iterations = i + 1;
  }
  // Median of every row across the traced iterations.
  for (const auto& [name, unit] : layer_metric_specs()) {
    std::vector<double> v;
    for (const LayerTable& t : tables) v.push_back(t.get(name));
    out.layers.set(name, median(v));
  }
  const double untraced = median(out.wall_s);
  out.layers.set("obs.trace_overhead_pct",
                 untraced > 0 ? (median(out.traced_wall_s) / untraced - 1.0) *
                                    100.0
                              : 0.0);
}

}  // namespace perfbench
