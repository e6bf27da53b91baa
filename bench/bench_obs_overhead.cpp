// Guard-rail benchmark for the observability layer: measures raw
// Simulator::run event throughput with no tracer/metrics installed (the
// disabled path: the layer benches and any library user without a scope),
// then again with a MetricsRegistry scope installed (the profiled path,
// which every fiveg_runall experiment takes, since core::Runner installs a
// metrics scope per run). Both numbers are committed in BENCH_obs.json;
// tools/ci/check_obs_overhead.py compares them, non-gating: the disabled
// path must stay within 2% of the baseline, and the profiled overhead
// within 10 points of the committed value.
//
// Prints a small JSON document on stdout so the driver can diff runs:
//   {"events": ..., "reps": ..., "events_per_sec_median": ...,
//    "profiled_events_per_sec_median": ..., "profiled_overhead_pct": ...}
#include <cstdint>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace {

using fiveg::bench::Clock;

// One rep: a self-rescheduling event chain plus a fan of one-shot timers,
// roughly the schedule/pop mix of a TCP experiment's hot loop. The chain
// events are labeled so the profiled variant exercises the per-label
// attribution path, not just the bare counters.
double events_per_sec(std::uint64_t chain_events) {
  fiveg::sim::Simulator simr;
  std::uint64_t fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < chain_events) {
      simr.schedule_in(fiveg::sim::kMicrosecond, "bench.chain", chain);
    }
  };
  simr.schedule_in(0, "bench.chain", chain);
  for (int i = 0; i < 1024; ++i) {
    simr.schedule_in((i + 1) * fiveg::sim::kMillisecond, [&] { ++fired; });
  }
  const auto start = Clock::now();
  simr.run();
  const double secs = fiveg::bench::seconds_since(start);
  return static_cast<double>(simr.executed_events()) / secs;
}

double median_rate(std::uint64_t chain_events, int reps) {
  std::vector<double> rates;
  rates.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) rates.push_back(events_per_sec(chain_events));
  return fiveg::bench::median(std::move(rates));
}

}  // namespace

int main() {
  constexpr std::uint64_t kEvents = 2'000'000;
  constexpr int kReps = 7;

  // Disabled path first (the BENCH_obs.json guard-rail number).
  const double disabled = median_rate(kEvents, kReps);

  // Profiled path: same workload under a metrics scope, as installed by
  // the Runner when a campaign collects metrics / writes a ledger.
  double profiled = 0;
  {
    fiveg::obs::MetricsRegistry registry;
    const fiveg::obs::ScopedObs scope(nullptr, &registry);
    profiled = median_rate(kEvents, kReps);
  }

  const double overhead_pct =
      disabled > 0 ? (disabled - profiled) / disabled * 100.0 : 0.0;
  std::printf(
      "{\"events\": %llu, \"reps\": %d, \"events_per_sec_median\": %.0f, "
      "\"profiled_events_per_sec_median\": %.0f, "
      "\"profiled_overhead_pct\": %.1f}\n",
      static_cast<unsigned long long>(kEvents), kReps, disabled, profiled,
      overhead_pct);
  return 0;
}
