// Tests for the per-figure report builder and golden-baseline drift
// detector: build_reports from a real Runner round trip, golden
// write/parse/check round trips, each Drift kind, tolerance semantics,
// artifact formats — and an end-to-end proof that the detector fires when
// the simulated radio environment is perturbed (+3 dB shadowing sigma)
// while leaving radio-independent figures quiet.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "obs/json_check.h"
#include "obs/obs.h"
#include "radio/shadowing.h"
#include "report/report.h"
#include "sim/rng.h"

namespace fiveg::report {
namespace {

// Deterministic synthetic experiment mirroring runner_test's fake: a
// metric series plus obs counters, enough to exercise every report path.
core::ExperimentSpec fake_spec(int index) {
  core::ExperimentSpec spec{"fake_" + std::to_string(index), "Figure 0",
                            "synthetic workload", /*smoke=*/true, nullptr};
  spec.run = [index](const core::ExperimentContext& ctx) {
    sim::Rng rng = sim::Rng(ctx.seed).fork("fake");
    double acc = 0;
    for (int i = 0; i < 100 + 10 * index; ++i) acc += rng.uniform(0, 1);
    *ctx.out << "fake table " << index << "\n";
    ctx.metric("acc", acc, "units");
    ctx.metric_point("sweep", index, acc / 2);
    ctx.metric_point("sweep", index + 1, acc);
    if (auto* m = obs::metrics()) {
      m->counter("fake.runs").add();
      m->digest("fake.lat_ms").observe(1.0 + index);
    }
  };
  return spec;
}

BuildResult build_from_summary(const core::RunSummary& s) {
  std::ostringstream os;
  core::write_json(s, os, /*include_timing=*/false);
  std::string error;
  const auto doc = obs::json_parse(os.str(), &error);
  EXPECT_NE(doc, nullptr) << error;
  return build_reports(*doc);
}

core::RunSummary run_fakes(int n) {
  core::ExperimentRegistry reg;
  for (int i = 0; i < n; ++i) reg.add(fake_spec(i));
  core::RunnerOptions opt;
  opt.seed = 42;
  return core::Runner(opt, &reg).run();
}

TEST(ReportBuildTest, BuildsOneFigurePerExperiment) {
  const BuildResult built = build_from_summary(run_fakes(3));
  ASSERT_TRUE(built.ok()) << built.error;
  ASSERT_EQ(built.figures.size(), 3u);
  const FigureReport& f = built.figures.front();
  EXPECT_EQ(f.id, "fake_0");
  EXPECT_EQ(f.paper_ref, "Figure 0");
  EXPECT_EQ(f.status, "ok");
  // Counters flow through, including the digest percentile ladder.
  EXPECT_EQ(f.metrics.at("fake.runs"), 1.0);
  EXPECT_EQ(f.metrics.at("fake.lat_ms.count"), 1.0);
  EXPECT_DOUBLE_EQ(f.metrics.at("fake.lat_ms.p50"),
                   f.metrics.at("fake.lat_ms.p95"));
  // Series summaries: count/mean/min/max/last per KPI series.
  EXPECT_EQ(f.metrics.at("series.sweep.count"), 2.0);
  EXPECT_DOUBLE_EQ(f.metrics.at("series.sweep.max"),
                   f.metrics.at("series.sweep.last"));
  EXPECT_GT(f.metrics.at("series.acc.mean"), 0.0);
  // Figures sorted by id.
  EXPECT_LT(built.figures[0].id, built.figures[1].id);
}

TEST(ReportBuildTest, RejectsWrongSchema) {
  // v4 documents carried duplicate flat keys; only v5 is read.
  std::string error;
  const auto doc =
      obs::json_parse(R"({"schema": "fiveg-runall/v4", "experiments": {}})",
                      &error);
  ASSERT_NE(doc, nullptr) << error;
  const BuildResult built = build_reports(*doc);
  EXPECT_FALSE(built.ok());
  EXPECT_NE(built.error.find("\"fiveg-runall/v4\""), std::string::npos);
  EXPECT_NE(built.error.find("supported: fiveg-runall/v5"), std::string::npos);
}

TEST(ReportGoldenTest, WriteParseCheckRoundTripIsDriftFree) {
  const BuildResult built = build_from_summary(run_fakes(2));
  ASSERT_TRUE(built.ok()) << built.error;
  for (const FigureReport& f : built.figures) {
    std::ostringstream os;
    write_golden_json(f, os);
    std::string error;
    const auto doc = obs::json_parse(os.str(), &error);
    ASSERT_NE(doc, nullptr) << error;
    GoldenFigure golden;
    ASSERT_TRUE(parse_golden(*doc, &golden, &error)) << error;
    EXPECT_EQ(golden.id, f.id);
    EXPECT_EQ(golden.metrics.size(), f.metrics.size());
    EXPECT_TRUE(check_figure(f, golden).empty());
  }
}

TEST(ReportGoldenTest, ParseRejectsMalformedDocuments) {
  std::string error;
  GoldenFigure golden;
  const auto wrong_schema = obs::json_parse(
      R"({"schema": "fiveg-golden/v2", "figure": "x", "metrics": {}})",
      &error);
  ASSERT_NE(wrong_schema, nullptr);
  EXPECT_FALSE(parse_golden(*wrong_schema, &golden, &error));
  EXPECT_NE(error.find("fiveg-golden/v1"), std::string::npos);

  const auto no_value = obs::json_parse(
      R"({"schema": "fiveg-golden/v1", "figure": "x",
          "metrics": {"m": {"rel_tol": 0.1}}})",
      &error);
  ASSERT_NE(no_value, nullptr);
  EXPECT_FALSE(parse_golden(*no_value, &golden, &error));
}

TEST(ReportDriftTest, DetectsEveryDriftKind) {
  FigureReport report;
  report.id = "fig";
  report.status = "ok";
  report.metrics = {{"stable", 10.0}, {"moved", 20.0}, {"new", 1.0}};

  GoldenFigure golden;
  golden.id = "fig";
  golden.status = "ok";
  golden.metrics["stable"] = {10.2, {0.05, 1e-9}};   // within 5%
  golden.metrics["moved"] = {10.0, {0.05, 1e-9}};    // 2x off
  golden.metrics["gone"] = {5.0, {0.05, 1e-9}};      // absent from report

  std::map<Drift::Kind, int> kinds;
  for (const Drift& d : check_figure(report, golden)) {
    ++kinds[d.kind];
    EXPECT_EQ(d.figure, "fig");
    EXPECT_FALSE(d.describe().empty());
  }
  EXPECT_EQ(kinds[Drift::Kind::kValue], 1);
  EXPECT_EQ(kinds[Drift::Kind::kMissingMetric], 1);
  EXPECT_EQ(kinds[Drift::Kind::kNewMetric], 1);
  EXPECT_EQ(kinds[Drift::Kind::kStatus], 0);

  golden.metrics.clear();
  report.metrics.clear();
  report.status = "failed";
  const auto drifts = check_figure(report, golden);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].kind, Drift::Kind::kStatus);
}

TEST(ReportDriftTest, ToleranceIsRelPlusAbs) {
  FigureReport report;
  report.id = "fig";
  report.status = "ok";
  GoldenFigure golden;
  golden.id = "fig";
  golden.metrics["m"] = {100.0, {0.05, 0.5}};
  report.metrics["m"] = 105.5;  // |diff| = 5.5 <= 0.05*100 + 0.5
  EXPECT_TRUE(check_figure(report, golden).empty());
  report.metrics["m"] = 105.6;
  EXPECT_EQ(check_figure(report, golden).size(), 1u);
  // NaN never passes a tolerance check.
  report.metrics["m"] = std::nan("");
  EXPECT_EQ(check_figure(report, golden).size(), 1u);
}

TEST(ReportDriftTest, DefaultToleranceTreatsIntegersAsCounts) {
  EXPECT_DOUBLE_EQ(default_tolerance(12.0).abs_tol, 1.5);
  EXPECT_DOUBLE_EQ(default_tolerance(0.0).abs_tol, 1.5);
  EXPECT_DOUBLE_EQ(default_tolerance(12.5).abs_tol, 1e-9);
  EXPECT_DOUBLE_EQ(default_tolerance(12.5).rel_tol, 0.05);
  // Beyond exact-integer range doubles don't get the count treatment.
  EXPECT_DOUBLE_EQ(default_tolerance(1e18).abs_tol, 1e-9);
}

TEST(ReportArtifactTest, CsvAndJsonFormats) {
  FigureReport f;
  f.id = "fig7";
  f.paper_ref = "Figure 7";
  f.description = "throughput";
  f.status = "ok";
  f.metrics = {{"a", 1.5}, {"b", 2.0}};

  std::ostringstream csv;
  write_figure_csv(f, csv);
  EXPECT_EQ(csv.str(), "figure,metric,value\nfig7,a,1.5\nfig7,b,2\n");

  std::ostringstream js;
  write_figure_json(f, js);
  std::string error;
  const auto doc = obs::json_parse(js.str(), &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->get("schema")->string, "fiveg-report/v1");
  EXPECT_EQ(doc->get("figure")->string, "fig7");
  EXPECT_EQ(doc->get("metrics")->get("a")->number, 1.5);
}

// --- End-to-end drift detection ---
//
// Runs two real experiments from the global registry at a fixed seed,
// snapshots goldens, perturbs the radio environment (+3 dB shadowing
// sigma via the test-only hook) and re-runs: the radio-dependent figure
// must drift, the radio-independent control must not.

core::RunSummary run_real(const std::string& filter) {
  core::RunnerOptions opt;
  opt.seed = 42;
  opt.jobs = 1;
  opt.filter = filter;
  return core::Runner(opt).run();  // global registry
}

TEST(ReportDriftTest, ShadowingPerturbationFlagsOnlyRadioFigures) {
  const std::string radio_fig = "table2_rsrp_distribution";
  const std::string control_fig = "smoke_tcp_bulk";

  // Baseline goldens.
  std::map<std::string, GoldenFigure> goldens;
  for (const std::string& f : {radio_fig, control_fig}) {
    const BuildResult built = build_from_summary(run_real(f));
    ASSERT_TRUE(built.ok()) << built.error;
    ASSERT_EQ(built.figures.size(), 1u) << f;
    std::ostringstream os;
    write_golden_json(built.figures[0], os);
    std::string error;
    const auto doc = obs::json_parse(os.str(), &error);
    ASSERT_NE(doc, nullptr) << error;
    ASSERT_TRUE(parse_golden(*doc, &goldens[f], &error)) << error;
  }

  // Perturbed re-run: +3 dB shadowing sigma on every ShadowingField
  // constructed from here on. Restore before asserting so a failure
  // can't leak the offset into other tests.
  radio::set_shadowing_sigma_offset_db(3.0);
  std::set<std::string> drifted;
  std::vector<Drift> control_drifts;
  for (const std::string& f : {radio_fig, control_fig}) {
    const BuildResult built = build_from_summary(run_real(f));
    ASSERT_TRUE(built.ok()) << built.error;
    const auto drifts = check_figure(built.figures.at(0), goldens.at(f));
    if (!drifts.empty()) drifted.insert(f);
    if (f == control_fig) control_drifts = drifts;
  }
  radio::set_shadowing_sigma_offset_db(0.0);

  EXPECT_EQ(drifted.count(radio_fig), 1u)
      << "+3 dB shadowing sigma must move the RSRP distribution";
  std::string control_report;
  for (const Drift& d : control_drifts) control_report += d.describe() + "\n";
  EXPECT_EQ(drifted.count(control_fig), 0u) << control_report;

  // Sanity: un-perturbed re-runs are drift-free (the detector isn't
  // just firing on everything).
  for (const std::string& f : {radio_fig, control_fig}) {
    const BuildResult built = build_from_summary(run_real(f));
    ASSERT_TRUE(built.ok()) << built.error;
    EXPECT_TRUE(check_figure(built.figures.at(0), goldens.at(f)).empty())
        << f;
  }
}

}  // namespace
}  // namespace fiveg::report
