// Guard-rail benchmark for the observability layer: measures raw
// Simulator::run event throughput with no tracer/metrics installed (the
// disabled path: the layer benches and any library user without a scope)
// and with a MetricsRegistry scope installed (the profiled path, which
// every fiveg_runall experiment takes, since core::Runner installs a
// metrics scope per run). The two paths alternate rep by rep, so a shift
// in the host's speed hits both alike. Each path reports the median and
// the best (max events/s) of its reps; the best is what host noise
// disturbs least, so tools/ci/check_obs_overhead.py compares it against
// BENCH_obs.json, non-gating: the disabled path must stay within 2% of
// the baseline, and the paired profiled overhead within 10 points of the
// committed value.
//
// Prints a small JSON document on stdout so the driver can diff runs:
//   {"events": ..., "reps": ..., "events_per_sec_median": ...,
//    "events_per_sec_best": ..., "profiled_events_per_sec_median": ...,
//    "profiled_events_per_sec_best": ..., "profiled_overhead_pct": ...}
// where profiled_overhead_pct is the median over rep pairs of
// (disabled - profiled) / disabled.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
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

}  // namespace

int main() {
  constexpr std::uint64_t kEvents = 2'000'000;
  constexpr int kReps = 7;

  // Alternate the disabled path (the BENCH_obs.json guard-rail number)
  // with the profiled path: the same workload under a metrics scope, as
  // installed by the Runner when a campaign collects metrics or writes a
  // ledger. One registry lives across the profiled reps, as across a run.
  fiveg::obs::MetricsRegistry registry;
  std::vector<double> disabled, profiled, overhead_pct;
  for (int r = 0; r < kReps; ++r) {
    disabled.push_back(events_per_sec(kEvents));
    {
      const fiveg::obs::ScopedObs scope(nullptr, &registry);
      profiled.push_back(events_per_sec(kEvents));
    }
    overhead_pct.push_back((disabled.back() - profiled.back()) /
                           disabled.back() * 100.0);
  }

  using fiveg::bench::median;
  std::printf(
      "{\"events\": %llu, \"reps\": %d, \"events_per_sec_median\": %.0f, "
      "\"events_per_sec_best\": %.0f, "
      "\"profiled_events_per_sec_median\": %.0f, "
      "\"profiled_events_per_sec_best\": %.0f, "
      "\"profiled_overhead_pct\": %.1f}\n",
      static_cast<unsigned long long>(kEvents), kReps, median(disabled),
      *std::max_element(disabled.begin(), disabled.end()), median(profiled),
      *std::max_element(profiled.begin(), profiled.end()),
      median(overhead_pct));
  return 0;
}
