// Tests for the execution-domain self-profiler (obs::prof): RSS readers,
// ScopedPhase timing, per-label wall-time attribution through the labeled
// scheduling seam, event-churn counters, the summarize() rollup, the
// tracer ring-buffer drop accounting (counter + chrome-trace round trip),
// and the simulate phase of runs that drive no simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.h"
#include "obs/chrome_trace.h"
#include "obs/json_check.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace fiveg::obs::prof {
namespace {

TEST(ProfTest, RssReadersReportPlausibleValues) {
  const std::uint64_t peak = peak_rss_kb();
  const std::uint64_t current = current_rss_kb();
  // A running gtest binary occupies at least a megabyte and the peak can
  // never be below the instantaneous value.
  EXPECT_GT(peak, 1024u);
  EXPECT_GT(current, 1024u);
  EXPECT_GE(peak, current / 2);  // slack: sampled at slightly different times
}

TEST(ProfTest, ScopedPhaseRecordsWallDigest) {
  MetricsRegistry registry;
  const ScopedObs scope(nullptr, &registry);
  {
    const ScopedPhase phase("unit_test");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    const ScopedPhase phase("unit_test");  // second entry, same digest
  }
  const auto wall = registry.snapshot(MetricClock::kWall);
  const auto rows = phase_rows(wall);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].phase, "unit_test");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_GE(rows[0].total_ms, 2.0);
  // Nothing leaked into the deterministic kSim domain.
  EXPECT_TRUE(registry.snapshot(MetricClock::kSim).empty());
}

TEST(ProfTest, ScopedPhaseWithoutScopeIsANoop) {
  const ScopedPhase phase("nobody_listening");  // must not crash
}

TEST(ProfTest, SimulatorFeedsLabelAttributionAndChurn) {
  MetricsRegistry registry;
  const ScopedObs scope(nullptr, &registry);
  sim::Simulator simr;
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    simr.schedule_in(i * sim::kMillisecond, "test.fast", [&] { ++fired; });
  }
  for (int i = 0; i < 10; ++i) {
    simr.schedule_in(i * sim::kMillisecond, "test.slow", [&] {
      ++fired;
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    });
  }
  const sim::EventId doomed =
      simr.schedule_in(sim::kSecond, "test.fast", [&] { ++fired; });
  simr.cancel(doomed);
  simr.run();
  EXPECT_EQ(fired, 60);

  const auto wall = registry.snapshot(MetricClock::kWall);

  // Per-label attribution via the labeled schedule seam.
  const auto labels = label_rows(wall);
  ASSERT_EQ(labels.size(), 2u);
  // test.slow sleeps, so it must dominate total wall time despite fewer
  // events; rows are sorted by total time descending.
  EXPECT_EQ(labels[0].label, "test.slow");
  EXPECT_EQ(labels[0].events, 10u);
  EXPECT_GE(labels[0].total_ms, 3.0);
  EXPECT_EQ(labels[1].label, "test.fast");
  EXPECT_EQ(labels[1].events, 50u);
  EXPECT_GT(labels[0].mean_us, labels[1].mean_us);

  // The simulate phase and the churn counters land in the summary.
  const Summary summary = summarize(wall);
  EXPECT_GT(summary.simulate_ms, 0.0);
  EXPECT_EQ(summary.events_scheduled, 61u);
  EXPECT_EQ(summary.events_cancelled, 1u);
  EXPECT_EQ(summary.top_label, "test.slow");
  EXPECT_GT(summary.top_label_ms, 0.0);

  // Churn is execution-domain data: none of it may appear among the kSim
  // counters that goldens compare (per-label event counts do, by design).
  for (const MetricSnapshot& s : registry.snapshot(MetricClock::kSim)) {
    EXPECT_EQ(s.name.find("prof."), std::string::npos) << s.name;
  }
}

// Every `sim.events.<label>` counter against the count of its
// `sim.callback_wall_us.<label>` digest; returns how many labels matched.
int expect_wall_counts_exact(const MetricsRegistry& registry) {
  const std::string events_prefix = "sim.events.";
  std::map<std::string, std::uint64_t> events;
  for (const MetricSnapshot& s : registry.snapshot(MetricClock::kSim)) {
    if (s.name.rfind(events_prefix, 0) == 0) {
      events[s.name.substr(events_prefix.size())] = s.count;
    }
  }
  std::map<std::string, std::uint64_t> timed;
  const auto wall = registry.snapshot(MetricClock::kWall);
  for (const LabelRow& row : label_rows(wall)) {
    timed[row.label] = row.events;
    EXPECT_GE(row.total_ms, 0.0) << row.label;
  }
  EXPECT_EQ(timed, events);
  return static_cast<int>(events.size());
}

TEST(ProfTest, SampledWallTimeKeepsExactCountsOnEveryEntryPoint) {
  MetricsRegistry registry;
  const ScopedObs scope(nullptr, &registry);
  sim::Simulator simr;
  // Well past the all-timed prefix, so most of these are sampled.
  for (int i = 0; i < 5000; ++i) {
    simr.schedule_at(i * sim::kMicrosecond, "test.busy", [] {});
  }
  for (int i = 0; i < 3; ++i) {  // fewer than the all-timed prefix
    simr.schedule_at(i * sim::kMillisecond, "test.rare", [] {});
  }
  // A run nested in an event: its drain ends inside the outer one.
  simr.schedule_at(2 * sim::kMillisecond, "test.nest", [&simr] {
    for (int i = 1; i <= 40; ++i) {
      simr.schedule_in(i * sim::kMicrosecond, "test.inner", [] {});
    }
    simr.run_until(simr.now() + 20 * sim::kMicrosecond);
  });

  simr.run_until(sim::kMillisecond);
  EXPECT_EQ(expect_wall_counts_exact(registry), 2);
  EXPECT_EQ(simr.run_window(1500 * sim::kMicrosecond), 499u);
  expect_wall_counts_exact(registry);
  for (int i = 0; i < 37; ++i) ASSERT_TRUE(simr.step());
  expect_wall_counts_exact(registry);
  simr.run();
  EXPECT_EQ(expect_wall_counts_exact(registry), 4);
  EXPECT_EQ(registry.counter("sim.events.test.busy").value(), 5000u);
  EXPECT_EQ(registry.counter("sim.events.test.inner").value(), 40u);

  // A second simulator on the same registry adds to the same series.
  sim::Simulator second;
  for (int i = 0; i < 100; ++i) second.schedule_in(i, "test.busy", [] {});
  second.run();
  expect_wall_counts_exact(registry);
  EXPECT_EQ(registry.counter("sim.events.test.busy").value(), 5100u);
}

TEST(ProfTest, HeapFallbackBaselineIsPerSimulator) {
  MetricsRegistry registry;
  const ScopedObs scope(nullptr, &registry);
  // Force some heap fallbacks *before* the measured simulator exists: a
  // capture too large for the 48-byte SBO.
  {
    sim::Simulator warmup;
    struct Fat {
      char bytes[128] = {};
    } fat;
    warmup.schedule_in(0, [fat] { (void)fat; });
    warmup.run();
  }
  sim::Simulator simr;
  int fired = 0;
  simr.schedule_in(0, "test.small", [&fired] { ++fired; });
  simr.run();
  const Summary summary = summarize(registry.snapshot(MetricClock::kWall));
  // The warmup's fallback happened before the measured simulator was
  // constructed, but record_run accumulates into a shared per-registry
  // counter — the measured run itself must add nothing new beyond the
  // warmup's own recorded allocation.
  EXPECT_LE(summary.heap_allocs, 1u);
}

TEST(ProfTest, TracerWrapFeedsDropCounterAndChromeTrace) {
  MetricsRegistry registry;
  Tracer tracer(4);
  const ScopedObs scope(&tracer, &registry);
  for (int i = 0; i < 7; ++i) {
    tracer.instant(i * sim::kMillisecond, "tick", "sim");
  }
  EXPECT_EQ(tracer.emitted(), 7u);
  EXPECT_EQ(tracer.dropped(), 3u);

  // The kWall counter mirrors the ring accounting.
  bool saw = false;
  for (const MetricSnapshot& s : registry.snapshot(MetricClock::kWall)) {
    if (s.name == "obs.trace.dropped_events") {
      saw = true;
      EXPECT_EQ(s.value, 3.0);
    }
  }
  EXPECT_TRUE(saw);

  // And the Chrome exporter carries the count into otherData, where
  // fiveg_trace_check reads it back.
  std::vector<ChromeProcess> processes(1);
  processes[0].name = "wrap_test";
  processes[0].tracer = &tracer;
  std::ostringstream os;
  ChromeTraceOptions options;
  options.include_wall = false;
  write_chrome_trace(processes, os, options);
  const TraceCheck check = check_chrome_trace(os.str());
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.event_count, 4u);  // ring capacity survived
  EXPECT_EQ(check.dropped_events, 3u);
}

TEST(ProfTest, SummarizeOfEmptySnapshotIsZero) {
  const Summary summary = summarize({});
  EXPECT_EQ(summary.construct_ms, 0.0);
  EXPECT_EQ(summary.events_scheduled, 0u);
  EXPECT_TRUE(summary.top_label.empty());
  EXPECT_TRUE(phase_rows({}).empty());
  EXPECT_TRUE(label_rows({}).empty());
}

TEST(ProfTest, HeapAllocsPerEventFlagsOnlyAboveTenPercent) {
  Summary s;
  EXPECT_EQ(heap_allocs_per_event(s), 0.0);  // no events: nothing to flag
  s.events_scheduled = 1000;
  s.heap_allocs = 100;
  EXPECT_DOUBLE_EQ(heap_allocs_per_event(s), 0.1);
  EXPECT_FALSE(heap_allocs_per_event(s) > kHighHeapAllocsPerEvent);
  s.heap_allocs = 101;
  EXPECT_TRUE(heap_allocs_per_event(s) > kHighHeapAllocsPerEvent);
}

// Runs with no simulator still account their sampling loops as the
// simulate phase, so fiveg_prof can say where their wall time goes.
TEST(ProfTest, SimulatorFreeRunsRecordASimulatePhase) {
  core::RunnerOptions opt;
  opt.only_names = {"fig10_harq_retx", "ho_event_mix"};
  const core::RunSummary summary = core::Runner(opt).run();
  ASSERT_EQ(summary.results.size(), 2u);
  for (const core::ExperimentResult& r : summary.results) {
    ASSERT_EQ(r.status, core::RunStatus::kOk) << r.name << ": " << r.error;
    const auto simulate = std::find_if(
        r.profile.begin(), r.profile.end(), [](const MetricSnapshot& s) {
          return s.name == std::string(kPhasePrefix) + "simulate";
        });
    ASSERT_NE(simulate, r.profile.end()) << r.name;
    EXPECT_EQ(simulate->kind, MetricSnapshot::Kind::kDigest) << r.name;
    EXPECT_GE(simulate->count, 1u) << r.name;
  }
}

}  // namespace
}  // namespace fiveg::obs::prof
