// Tests for the parallel campaign runner: parallel/serial byte-identity,
// deterministic seed forking, timeout abandonment and failure capture.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "obs/json_check.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/rng.h"

namespace fiveg::core {
namespace {

// A deterministic synthetic experiment: draws from the forked seed, prints
// a small table and records metrics. `index` varies the name/work.
ExperimentSpec fake_spec(int index) {
  ExperimentSpec spec{"fake_" + std::to_string(index), "Figure 0",
                      "synthetic workload", /*smoke=*/true, nullptr};
  spec.run = [index](const ExperimentContext& ctx) {
    sim::Rng rng = sim::Rng(ctx.seed).fork("fake");
    double acc = 0;
    for (int i = 0; i < 1000 + 100 * index; ++i) acc += rng.uniform(0, 1);
    *ctx.out << "fake table " << index << ": acc=" << acc
             << " seed=" << ctx.seed << "\n\n";
    ctx.metric("acc", acc, "units");
    ctx.metric_point("sweep", index, acc / 2);
    // Exercise the runner-installed obs scope like a real experiment would.
    if (auto* m = obs::metrics()) m->counter("fake.runs").add();
    if (auto* t = obs::tracer()) {
      t->instant(1000 * index, "fake.tick", "sim");
    }
  };
  return spec;
}

void throw_deliberately(const ExperimentContext&) {
  throw std::runtime_error("deliberate failure");
}

void sleep_past_timeout(const ExperimentContext&) {
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
}

ExperimentRegistry make_fake_registry(int n) {
  ExperimentRegistry reg;
  for (int i = 0; i < n; ++i) reg.add(fake_spec(i));
  return reg;
}

TEST(RunnerTest, ParallelIsByteIdenticalToSerial) {
  ExperimentRegistry reg = make_fake_registry(12);
  RunnerOptions serial;
  serial.jobs = 1;
  serial.seed = 42;
  RunnerOptions parallel = serial;
  parallel.jobs = 8;

  const RunSummary a = Runner(serial, &reg).run();
  const RunSummary b = Runner(parallel, &reg).run();

  std::ostringstream text_a, text_b, json_a, json_b;
  write_text(a, text_a);
  write_text(b, text_b);
  write_json(a, json_a, /*include_timing=*/false);
  write_json(b, json_b, /*include_timing=*/false);
  EXPECT_EQ(text_a.str(), text_b.str());
  EXPECT_EQ(json_a.str(), json_b.str());
  EXPECT_TRUE(a.all_ok());
}

TEST(RunnerTest, ForkSeedMatchesRngForkSemantics) {
  EXPECT_EQ(Runner::fork_seed(42, "fig7_throughput"),
            sim::Rng(42).fork("fig7_throughput").seed());
  // Stable across calls, distinct across names and base seeds.
  EXPECT_EQ(Runner::fork_seed(42, "a"), Runner::fork_seed(42, "a"));
  EXPECT_NE(Runner::fork_seed(42, "a"), Runner::fork_seed(42, "b"));
  EXPECT_NE(Runner::fork_seed(42, "a"), Runner::fork_seed(43, "a"));
}

TEST(RunnerTest, EachExperimentRunsOnItsOwnForkedSeed) {
  ExperimentRegistry reg = make_fake_registry(3);
  RunnerOptions opt;
  opt.seed = 7;
  const RunSummary s = Runner(opt, &reg).run();
  ASSERT_EQ(s.results.size(), 3u);
  for (const ExperimentResult& r : s.results) {
    EXPECT_EQ(r.seed, Runner::fork_seed(7, r.name));
  }
  EXPECT_NE(s.results[0].seed, s.results[1].seed);
}

TEST(RunnerTest, ResultsAreSortedByNameAndCarryMetrics) {
  ExperimentRegistry reg = make_fake_registry(11);
  RunnerOptions opt;
  opt.jobs = 4;
  const RunSummary s = Runner(opt, &reg).run();
  ASSERT_EQ(s.results.size(), 11u);
  for (std::size_t i = 1; i < s.results.size(); ++i) {
    EXPECT_LT(s.results[i - 1].name, s.results[i].name);
  }
  const ExperimentResult& r = s.results.front();
  ASSERT_EQ(r.metrics.size(), 2u);
  EXPECT_EQ(r.metrics[0].name, "acc");
  EXPECT_EQ(r.metrics[0].unit, "units");
  ASSERT_EQ(r.metrics[0].points.size(), 1u);
  EXPECT_GT(r.metrics[0].points[0].y, 0);
  EXPECT_EQ(r.metrics[1].name, "sweep");
  EXPECT_NE(r.text.find("fake table"), std::string::npos);
}

TEST(RunnerTest, FilterSelectsSubstring) {
  ExperimentRegistry reg = make_fake_registry(12);
  RunnerOptions opt;
  opt.filter = "fake_1";  // fake_1, fake_10, fake_11
  EXPECT_EQ(Runner(opt, &reg).selected().size(), 3u);
}

// `fiveg_runall --filter <id>` runs exactly experiment <id>: no
// registered name is a substring of another.
TEST(RunnerTest, FilterByFullNameSelectsExactlyThatExperiment) {
  const std::vector<std::string> names = Runner(RunnerOptions{}).selected();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    RunnerOptions opt;
    opt.filter = name;
    EXPECT_EQ(Runner(opt).selected(), std::vector<std::string>{name});
  }
}

TEST(RunnerTest, ThrowingExperimentIsReportedNotFatal) {
  ExperimentRegistry reg = make_fake_registry(2);
  reg.add({"always_throws", "n/a", "throws", false, throw_deliberately});
  const RunSummary s = Runner(RunnerOptions{}, &reg).run();
  ASSERT_EQ(s.results.size(), 3u);
  EXPECT_EQ(s.count(RunStatus::kFailed), 1);
  EXPECT_EQ(s.count(RunStatus::kOk), 2);
  EXPECT_FALSE(s.all_ok());
  EXPECT_EQ(s.results.front().name, "always_throws");
  EXPECT_EQ(s.results.front().error, "deliberate failure");
  std::ostringstream os;
  write_text(s, os);
  EXPECT_NE(os.str().find("always_throws — failed: deliberate failure"),
            std::string::npos);
  EXPECT_NE(os.str().find("3 experiments: 2 ok, 1 failed, 0 timed out"),
            std::string::npos);
}

TEST(RunnerTest, HungExperimentTimesOutGracefully) {
  ExperimentRegistry reg = make_fake_registry(1);
  reg.add({"hangs", "n/a", "sleeps past timeout", false, sleep_past_timeout});
  RunnerOptions opt;
  opt.timeout_s = 0.05;
  const auto start = std::chrono::steady_clock::now();
  const RunSummary s = Runner(opt, &reg).run();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(450));  // not the full sleep
  EXPECT_EQ(s.count(RunStatus::kTimedOut), 1);
  EXPECT_EQ(s.count(RunStatus::kOk), 1);  // the fast sibling still runs
  const ExperimentResult* hung = nullptr;
  for (const ExperimentResult& r : s.results) {
    if (r.name == "hangs") hung = &r;
  }
  ASSERT_NE(hung, nullptr);
  EXPECT_EQ(hung->status, RunStatus::kTimedOut);
  EXPECT_NE(hung->error.find("timeout"), std::string::npos);
  // Give the abandoned thread time to drain before the test exits.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
}

// A timeout past the steady clock's range (1e10 s is ~317 years; the clock
// holds ~292 years of nanoseconds) means no timeout, not a deadline that
// overflowed into the past and expires at once.
TEST(RunnerTest, TimeoutBeyondClockRangeIsNoTimeout) {
  for (const double timeout_s : {1e9, 9.3e9, 1e10, 1e300}) {
    ExperimentRegistry reg = make_fake_registry(1);
    RunnerOptions opt;
    opt.timeout_s = timeout_s;
    const RunSummary s = Runner(opt, &reg).run();
    ASSERT_EQ(s.results.size(), 1u);
    EXPECT_EQ(s.results.front().status, RunStatus::kOk)
        << "timeout " << timeout_s << ": " << s.results.front().error;
  }
}

// An abandoned worker owns a copy of its spec, never a reference into the
// registry: a caller may destroy the registry as soon as run() returns,
// while the timed-out body is still sleeping on its detached thread.
TEST(RunnerTest, AbandonedRunOutlivesItsRegistry) {
  auto read_size = std::make_shared<std::atomic<std::size_t>>(0);
  {
    ExperimentRegistry reg;
    const std::string state(64, 'x');  // heap-allocated, owned by the body
    auto body = [state, read_size](const ExperimentContext& ctx) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
      *ctx.out << state;
      read_size->store(state.size());
    };
    reg.add({"hangs_with_state", "n/a", "reads its state after a sleep",
             false, std::move(body)});
    RunnerOptions opt;
    opt.timeout_s = 0.05;
    const RunSummary s = Runner(opt, &reg).run();
    ASSERT_EQ(s.results.size(), 1u);
    EXPECT_EQ(s.results.front().status, RunStatus::kTimedOut);
  }  // the registry and its specs are destroyed mid-sleep
  EXPECT_EQ(read_size->load(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  EXPECT_EQ(read_size->load(), 64u);
}

TEST(RunnerTest, SmokeTierOfRealRegistryIsNonEmpty) {
  RunnerOptions opt;
  opt.smoke_only = true;
  const Runner runner(opt);  // global registry
  const auto smoke = runner.selected();
  EXPECT_GE(smoke.size(), 5u);
  // The smoke tier is a strict subset of the full registry.
  RunnerOptions all;
  EXPECT_LT(smoke.size(), Runner(all).selected().size());
}

TEST(RunnerTest, JsonOutputIsWellFormedScaffold) {
  ExperimentRegistry reg = make_fake_registry(2);
  const RunSummary s = Runner(RunnerOptions{}, &reg).run();
  std::ostringstream os;
  write_json(s, os, /*include_timing=*/true);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"schema\": \"fiveg-runall/v5\""), std::string::npos);
  EXPECT_NE(j.find("\"experiments\""), std::string::npos);
  EXPECT_NE(j.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(j.find("\"summary\""), std::string::npos);
  // The v2 delta: a flat counters object per experiment.
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"fake.runs\": 1"), std::string::npos);
  // The v4 delta: per-run and summary peak RSS (timing-gated).
  EXPECT_NE(j.find("\"peak_rss_kb\""), std::string::npos);
  // Timing off really drops the non-deterministic fields — wall_ms,
  // peak_rss_kb AND the kWall profile object.
  std::ostringstream os2;
  write_json(s, os2, /*include_timing=*/false);
  EXPECT_EQ(os2.str().find("wall_ms"), std::string::npos);
  EXPECT_EQ(os2.str().find("peak_rss_kb"), std::string::npos);
  EXPECT_EQ(os2.str().find("\"profile\""), std::string::npos);
}

TEST(RunnerTest, CapturesCountersAndOptionalTrace) {
  ExperimentRegistry reg = make_fake_registry(2);
  RunnerOptions opt;
  opt.trace = true;
  opt.trace_capacity = 64;
  const RunSummary s = Runner(opt, &reg).run();
  ASSERT_EQ(s.results.size(), 2u);
  for (const ExperimentResult& r : s.results) {
    ASSERT_NE(r.trace, nullptr);
    EXPECT_EQ(r.trace->emitted(), 1u);
    bool saw = false;
    for (const obs::MetricSnapshot& m : r.counters) {
      saw |= (m.name == "fake.runs" && m.value == 1.0);
    }
    EXPECT_TRUE(saw);
  }

  // Tracing off: no tracer is allocated at all.
  RunnerOptions plain;
  const RunSummary s2 = Runner(plain, &reg).run();
  for (const ExperimentResult& r : s2.results) {
    EXPECT_EQ(r.trace, nullptr);
    EXPECT_FALSE(r.counters.empty());
  }

  // Metrics off: counters stay empty (opt-out for overhead-sensitive runs).
  RunnerOptions bare;
  bare.collect_metrics = false;
  const RunSummary s3 = Runner(bare, &reg).run();
  for (const ExperimentResult& r : s3.results) {
    EXPECT_TRUE(r.counters.empty());
    EXPECT_TRUE(r.profile.empty());
  }
}

TEST(RunnerTest, MergedChromeTraceIsValid) {
  ExperimentRegistry reg = make_fake_registry(3);
  RunnerOptions opt;
  opt.trace = true;
  const RunSummary s = Runner(opt, &reg).run();
  std::ostringstream os;
  write_chrome_trace(s, os, /*include_wall=*/false);
  const obs::TraceCheck check = obs::check_chrome_trace(os.str());
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.event_count, 3u);  // one instant per fake experiment
  ASSERT_EQ(check.processes.size(), 3u);
  EXPECT_EQ(check.processes[0], "fake_0");  // pid order = sorted names
}

TEST(RunnerTest, TracedParallelRunIsByteIdenticalToSerial) {
  ExperimentRegistry reg = make_fake_registry(8);
  RunnerOptions serial;
  serial.jobs = 1;
  serial.trace = true;
  RunnerOptions parallel = serial;
  parallel.jobs = 8;
  const RunSummary a = Runner(serial, &reg).run();
  const RunSummary b = Runner(parallel, &reg).run();
  std::ostringstream ja, jb, ta, tb;
  write_json(a, ja, /*include_timing=*/false);
  write_json(b, jb, /*include_timing=*/false);
  write_chrome_trace(a, ta, /*include_wall=*/false);
  write_chrome_trace(b, tb, /*include_wall=*/false);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_EQ(ta.str(), tb.str());
}

}  // namespace
}  // namespace fiveg::core
