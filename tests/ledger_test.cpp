// Tests for the campaign run ledger (fiveg-ledger/v1): full-fidelity
// round-trips (including >2^53 seeds and awkward doubles), torn-tail and
// corrupt-record recovery, the resume set's seed/status filtering, the
// writer's torn-tail sealing, and the Runner-level guarantee that resumed
// experiments are spliced in without re-executing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "core/ledger.h"
#include "core/runner.h"
#include "sim/rng.h"

namespace fiveg::core {
namespace {

// A richly-populated synthetic result exercising every serialized field:
// a full-range seed, non-representable-in-float doubles, digest bins,
// neg_bins and zero, multi-point series and multi-line text.
ExperimentResult make_result(const std::string& name) {
  ExperimentResult r;
  r.name = name;
  r.paper_ref = "Figure 9";
  r.description = "synthetic \"quoted\" result\nwith control bytes\t";
  r.status = RunStatus::kOk;
  r.seed = 0xfedcba9876543210ULL;  // far beyond 2^53
  r.wall_ms = 123.456;
  r.peak_rss_kb = 54321;
  r.text = "== table ==\na | b\n0.1 | 2\n\n";

  MetricSeries series;
  series.name = "sweep";
  series.unit = "Mbps";
  series.points.push_back({0.1, 1.0 / 3.0});
  series.points.push_back({-2.5, 1e-17});
  r.metrics.push_back(series);

  obs::MetricSnapshot counter;
  counter.name = "sim.events";
  counter.kind = obs::MetricSnapshot::Kind::kCounter;
  counter.value = 1234567.0;
  r.counters.push_back(counter);

  obs::MetricSnapshot rtt;
  rtt.name = "tcp.rtt_ms";
  rtt.kind = obs::MetricSnapshot::Kind::kDigest;
  rtt.count = 42;
  rtt.sum = 123.0625;
  rtt.min = 0.5;
  rtt.max = 30.0;
  rtt.value = rtt.sum / 42.0;
  rtt.p50 = 2.0;
  rtt.p99 = 16.0;
  rtt.bins = {{-3, 7}, {0, 30}, {4, 5}};
  r.counters.push_back(rtt);

  obs::MetricSnapshot digest;
  digest.name = "energy.mw";
  digest.kind = obs::MetricSnapshot::Kind::kDigest;
  digest.count = 9;
  digest.sum = -4.5;
  digest.min = -2.0;
  digest.max = 1.0;
  digest.value = -0.5;
  digest.p05 = -1.9;
  digest.p95 = 0.9;
  digest.bins = {{10, 4}};
  digest.neg_bins = {{8, 4}};
  digest.zero_count = 1;
  r.counters.push_back(digest);

  obs::MetricSnapshot wall;
  wall.name = "prof.phase_ms.simulate";
  wall.kind = obs::MetricSnapshot::Kind::kDigest;
  wall.clock = obs::MetricClock::kWall;
  wall.count = 1;
  wall.sum = 98.25;
  wall.min = 98.25;
  wall.max = 98.25;
  wall.value = 98.25;
  r.profile.push_back(wall);
  return r;
}

std::string temp_path(const char* name) {
  return testing::TempDir() + "fiveg_ledger_test_" + name;
}

TEST(LedgerTest, LineRoundTripsByteIdentically) {
  const ExperimentResult original = make_result("round_trip");
  const std::string line = ledger_line(original);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "record must be one line";

  const LedgerLoad load = parse_ledger(line);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.dropped_lines, 0u);
  EXPECT_EQ(load.corrupt_records, 0u);
  EXPECT_FALSE(load.truncated_tail);

  const ExperimentResult& restored = load.records[0];
  EXPECT_EQ(restored.seed, original.seed);  // full 64-bit fidelity
  EXPECT_EQ(restored.peak_rss_kb, original.peak_rss_kb);
  // The re-serialized line is byte-identical: print -> parse -> print is a
  // fixed point, which is what makes resume output deterministic.
  EXPECT_EQ(ledger_line(restored), line);

  // And the campaign JSON built from the restored result matches the one
  // built from the original, with and without timing.
  RunSummary a;
  a.results.push_back(original);
  RunSummary b;
  b.results.push_back(restored);
  for (const bool timing : {false, true}) {
    std::ostringstream ja, jb;
    write_json(a, ja, timing);
    write_json(b, jb, timing);
    EXPECT_EQ(ja.str(), jb.str()) << "include_timing=" << timing;
  }
}

TEST(LedgerTest, FailedRunRoundTripsStatusAndError) {
  ExperimentResult r = make_result("exploded");
  r.status = RunStatus::kFailed;
  r.error = "deliberate failure";
  const LedgerLoad load = parse_ledger(ledger_line(r));
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].status, RunStatus::kFailed);
  EXPECT_EQ(load.records[0].error, "deliberate failure");
}

TEST(LedgerTest, TornFinalLineIsToleratedNotCounted) {
  const std::string a = ledger_line(make_result("a"));
  const std::string b = ledger_line(make_result("b"));
  const std::string torn = a + b + a.substr(0, a.size() / 2);
  const LedgerLoad load = parse_ledger(torn);
  EXPECT_EQ(load.records.size(), 2u);
  EXPECT_TRUE(load.truncated_tail);
  EXPECT_EQ(load.dropped_lines, 0u);
  EXPECT_EQ(load.corrupt_records, 0u);
}

TEST(LedgerTest, CorruptRecordIsDroppedByChecksum) {
  std::string line = ledger_line(make_result("tampered"));
  // Flip payload bytes without breaking JSON: the checksum, not the
  // parser, must catch this.
  const std::size_t at = line.find("== table ==");
  ASSERT_NE(at, std::string::npos);
  line[at] = '#';
  const LedgerLoad load = parse_ledger(line + ledger_line(make_result("ok")));
  EXPECT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].name, "ok");
  EXPECT_EQ(load.corrupt_records, 1u);
}

TEST(LedgerTest, ForeignLinesAreDroppedNotFatal) {
  const std::string text = "not json at all\n" +
                           std::string("{\"schema\":\"something-else/v9\"}\n") +
                           ledger_line(make_result("good"));
  const LedgerLoad load = parse_ledger(text);
  EXPECT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.dropped_lines, 2u);
}

TEST(LedgerTest, RetiredHistogramKindIsDropped) {
  // Lines written while log2 histograms existed carry kind "histogram";
  // they no longer parse, so --resume reruns those runs.
  std::string line = ledger_line(make_result("old"));
  const std::string digest_kind =
      R"("name":"prof.phase_ms.simulate","kind":"digest")";
  const std::size_t at = line.find(digest_kind);
  ASSERT_NE(at, std::string::npos);
  line.replace(at, digest_kind.size(),
               R"("name":"prof.phase_ms.simulate","kind":"histogram")");
  const LedgerLoad load = parse_ledger(line + ledger_line(make_result("new")));
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].name, "new");
  EXPECT_EQ(load.dropped_lines, 1u);
}

TEST(LedgerTest, CompletedRunsFiltersStatusAndSeed) {
  const std::uint64_t base = 42;
  ExperimentResult ok = make_result("alpha");
  ok.seed = Runner::fork_seed(base, "alpha");
  ExperimentResult failed = make_result("beta");
  failed.seed = Runner::fork_seed(base, "beta");
  failed.status = RunStatus::kFailed;
  failed.error = "boom";
  ExperimentResult stale = make_result("gamma");
  stale.seed = Runner::fork_seed(base + 1, "gamma");  // other campaign seed
  // A re-run of alpha with different text: the later record must win.
  ExperimentResult rerun = ok;
  rerun.text = "== fresher table ==\n";

  const std::string text = ledger_line(ok) + ledger_line(failed) +
                           ledger_line(stale) + ledger_line(rerun);
  const LedgerLoad load = parse_ledger(text);
  ASSERT_EQ(load.records.size(), 4u);
  const auto completed = completed_runs(load, base);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed.count("alpha"), 1u);
  EXPECT_EQ(completed.at("alpha").text, "== fresher table ==\n");
}

TEST(LedgerTest, WriterAppendsAndSealsTornTail) {
  const std::string path = temp_path("writer.jsonl");
  std::remove(path.c_str());
  // Pre-seed the file with a complete record and a torn tail.
  {
    std::ofstream f(path, std::ios::binary);
    const std::string line = ledger_line(make_result("pre"));
    f << line << line.substr(0, line.size() / 3);
  }
  {
    LedgerWriter writer(path);
    ASSERT_TRUE(writer.ok()) << writer.error();
    EXPECT_TRUE(writer.append(make_result("post")));
  }
  const LedgerLoad load = load_ledger(path);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].name, "pre");
  EXPECT_EQ(load.records[1].name, "post");
  // The sealed torn line now ends in '\n', so it counts as a dropped
  // interior line rather than a truncated tail.
  EXPECT_EQ(load.dropped_lines, 1u);
  EXPECT_FALSE(load.truncated_tail);
  std::remove(path.c_str());
}

// Side-effect counter proving resumed experiments never re-execute.
std::atomic<int> g_executions{0};

ExperimentSpec counting_spec(int index) {
  ExperimentSpec spec{"counting_" + std::to_string(index), "Figure 0",
                      "counts executions", /*smoke=*/false, nullptr};
  spec.run = [index](const ExperimentContext& ctx) {
    g_executions.fetch_add(1);
    sim::Rng rng = sim::Rng(ctx.seed).fork("counting");
    *ctx.out << "counting " << index << ": " << rng.uniform(0, 1) << "\n\n";
    ctx.metric("draw", rng.uniform(0, 1));
  };
  return spec;
}

ExperimentRegistry make_counting_registry(int n) {
  ExperimentRegistry reg;
  for (int i = 0; i < n; ++i) reg.add(counting_spec(i));
  return reg;
}

TEST(LedgerTest, RunnerResumeSplicesWithoutReExecuting) {
  const std::string path = temp_path("resume.jsonl");
  std::remove(path.c_str());
  ExperimentRegistry reg = make_counting_registry(6);

  RunnerOptions opt;
  opt.jobs = 2;
  opt.seed = 42;
  opt.ledger_path = path;
  g_executions = 0;
  const RunSummary full = Runner(opt, &reg).run();
  EXPECT_EQ(g_executions.load(), 6);
  ASSERT_TRUE(full.all_ok());

  // Keep only half the ledger, as after a kill.
  const LedgerLoad all = load_ledger(path);
  ASSERT_EQ(all.records.size(), 6u);
  std::remove(path.c_str());
  {
    LedgerWriter writer(path);
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(writer.append(all.records[i]));
    }
  }

  RunnerOptions resume_opt = opt;
  resume_opt.resume = std::make_shared<
      const std::map<std::string, ExperimentResult>>(
      completed_runs(load_ledger(path), opt.seed));
  ASSERT_EQ(resume_opt.resume->size(), 3u);
  g_executions = 0;
  const RunSummary resumed = Runner(resume_opt, &reg).run();
  EXPECT_EQ(g_executions.load(), 3);  // only the missing half ran

  std::ostringstream ja, jb;
  write_json(full, ja, /*include_timing=*/false);
  write_json(resumed, jb, /*include_timing=*/false);
  EXPECT_EQ(ja.str(), jb.str());

  // The resumed campaign appended only the re-run half to the ledger —
  // everything now present and valid.
  const LedgerLoad after = load_ledger(path);
  EXPECT_EQ(after.records.size(), 6u);
  EXPECT_EQ(completed_runs(after, opt.seed).size(), 6u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fiveg::core
