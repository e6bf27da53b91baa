// Integration tests for the experiment framework: registry completeness,
// scenario/testbed wiring, and smoke runs of the fast experiments.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "app/iperf.h"
#include "core/experiment.h"
#include "core/paper.h"
#include "core/runner.h"
#include "core/scenario.h"

namespace fiveg::core {
namespace {

TEST(RegistryTest, AllExperimentsRegistered) {
  const auto names = ExperimentRegistry::instance().names();
  const std::vector<std::string> expected = {
      "ablation_buffer_sizing", "ablation_cc_robustness",
      "ablation_sa_handoff",    "ablation_tail_timer",
      "aqm_bufferbloat",        "aqm_incast",
      "aqm_rtt_fairness",       "aqm_table3_mitigation",
      "city_grid_10k",          "city_grid_1k",
      "city_grid_smoke",        "city_par_100k",
      "city_par_smoke",
      "dsl_replacement",        "ext_abr_video",
      "ext_cell_load",          "ext_codel_aqm",
      "ext_densification",      "ext_faststart_web",
      "ext_ho_tuning",          "ext_indoor_microcell",
      "ext_mec",                "ext_multipath",
      "ext_sa_energy",          "fig10_harq_retx",
      "ho_event_mix",
      "fig11_bursty_loss",      "fig12_ho_throughput",
      "fig13_rtt_scatter",      "fig14_hop_breakdown",
      "fig15_rtt_distance",     "fig16_17_web",
      "fig18_19_video_tput",    "fig20_frame_delay",
      "fig21_energy_apps",      "fig22_energy_per_bit",
      "fig23_power_trace",      "fig2_coverage_map",
      "fig3_indoor_outdoor",    "fig4_5_ho_quality",
      "fig6_ho_latency",        "fig7_throughput",
      "fig8_cwnd",              "fig9_loss_vs_load",
      "smoke_tcp_bulk",
      "table1_phy_info",        "table2_rsrp_distribution",
      "table3_buffer_sizing",   "table4_power_policies",
  };
  for (const std::string& e : expected) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), e) != names.end())
        << "missing experiment " << e;
  }
  EXPECT_EQ(names.size(), expected.size());
}

TEST(RegistryTest, UnknownExperimentRejected) {
  EXPECT_EQ(ExperimentRegistry::instance().find("nope"), nullptr);
  RunnerOptions opt;
  opt.only_names = {"nope"};
  EXPECT_TRUE(Runner(opt).selected().empty());
}

TEST(RegistryTest, DuplicateNameRejectedAtRegistration) {
  const ExperimentSpec dummy{"dup_experiment", "n/a", "dup", false,
                             [](const ExperimentContext&) {}};
  ExperimentRegistry reg;  // local registry, not the global instance
  reg.add(dummy);
  EXPECT_THROW(reg.add(dummy), std::invalid_argument);
  // The first registration survives the rejected duplicate.
  EXPECT_NE(reg.find("dup_experiment"), nullptr);
  EXPECT_EQ(reg.names().size(), 1u);
}

TEST(RegistryTest, FindLooksUpByName) {
  const ExperimentSpec* spec =
      ExperimentRegistry::instance().find("table1_phy_info");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->paper_ref, "Table 1");
  EXPECT_TRUE(spec->run != nullptr);
  EXPECT_EQ(ExperimentRegistry::instance().find("nope"), nullptr);
}

// fiveg_report --check walks only the figures present in a run, so an
// experiment that silently left the smoke tier would leave its golden
// unchecked. The smoke tier is exactly the set of committed goldens.
TEST(RegistryTest, SmokeTierMatchesGoldens) {
  std::set<std::string> goldens;
  for (const auto& entry :
       std::filesystem::directory_iterator(FIVEG_GOLDEN_DIR)) {
    if (entry.path().extension() == ".json") {
      goldens.insert(entry.path().stem().string());
    }
  }
  std::set<std::string> smoke;
  const ExperimentRegistry& reg = ExperimentRegistry::instance();
  for (const std::string& name : reg.names()) {
    if (reg.find(name)->smoke) smoke.insert(name);
  }
  EXPECT_FALSE(goldens.empty());
  EXPECT_EQ(smoke, goldens);
}

TEST(ExperimentContextTest, MetricsAccumulateIntoResult) {
  ExperimentResult res;
  ExperimentContext ctx;
  ctx.result = &res;
  ctx.metric("tput", 1.5, "Mbps");
  ctx.metric("tput", 2.5);
  ctx.metric_point("sweep", 10, 0.1, "%");
  ASSERT_EQ(res.metrics.size(), 2u);
  EXPECT_EQ(res.metrics[0].name, "tput");
  EXPECT_EQ(res.metrics[0].unit, "Mbps");
  ASSERT_EQ(res.metrics[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(res.metrics[0].points[0].x, 0);
  EXPECT_DOUBLE_EQ(res.metrics[0].points[1].x, 1);
  EXPECT_DOUBLE_EQ(res.metrics[0].points[1].y, 2.5);
  EXPECT_DOUBLE_EQ(res.metrics[1].points[0].x, 10);
  // A null result sink makes metric() a no-op, not a crash.
  ExperimentContext no_sink;
  no_sink.metric("ignored", 1.0);
}

TEST(RegistryTest, FastExperimentsProduceTables) {
  RunnerOptions opt;
  opt.only_names = {"table1_phy_info", "fig10_harq_retx",
                    "fig22_energy_per_bit", "table4_power_policies",
                    "ablation_sa_handoff"};
  const RunSummary s = Runner(opt).run();
  ASSERT_EQ(s.results.size(), opt.only_names.size());
  for (const ExperimentResult& r : s.results) {
    EXPECT_EQ(r.status, RunStatus::kOk) << r.name << ": " << r.error;
    EXPECT_NE(r.text.find("=="), std::string::npos) << r.name;
    EXPECT_NE(r.text.find("reproduces"), std::string::npos) << r.name;
  }
}

TEST(ScenarioTest, DeterministicPerSeed) {
  const Scenario a(7), b(7), c(8);
  EXPECT_EQ(a.campus().buildings().size(), b.campus().buildings().size());
  const geo::Point p = a.campus().bounds().center();
  EXPECT_DOUBLE_EQ(a.deployment().best(radio::Rat::kNr, p).rsrp_dbm,
                   b.deployment().best(radio::Rat::kNr, p).rsrp_dbm);
  // A different seed moves the deployment.
  EXPECT_NE(a.deployment().best(radio::Rat::kNr, p).rsrp_dbm,
            c.deployment().best(radio::Rat::kNr, p).rsrp_dbm);
}

// The city's cross-district lookahead and ParSim's fallback threshold
// share one floor: a zero-length backhaul lands exactly on it, so such a
// city still runs its lanes in parallel.
TEST(ScenarioTest, CityLookaheadFloorIsParSimThreshold) {
  PartitionedCityConfig part;
  part.backhaul_km = 0;
  EXPECT_EQ(city_partition_lookahead(part), sim::kMinParallelLookahead);
  part.backhaul_km = 30;
  EXPECT_EQ(city_partition_lookahead(part), 150 * sim::kMicrosecond);
}

TEST(ScenarioTest, Table1CalibrationHolds) {
  // Guard the Table 2 calibration: coverage-hole fractions must stay near
  // the paper across seeds.
  const Scenario sc(42);
  sim::Rng rng(9);
  int holes_nr = 0, holes_lte = 0;
  const int n = 1200;
  for (int i = 0; i < n; ++i) {
    const geo::Point p = sc.campus().random_outdoor_point(rng);
    holes_nr += !sc.deployment().best(radio::Rat::kNr, p).in_coverage();
    holes_lte += !sc.deployment().best(radio::Rat::kLte, p).in_coverage();
  }
  const double nr_frac = static_cast<double>(holes_nr) / n;
  const double lte_frac = static_cast<double>(holes_lte) / n;
  EXPECT_NEAR(nr_frac, paper::kNrRsrpDist[5], 0.05);   // ~8%
  EXPECT_LT(lte_frac, 0.05);                           // ~1.8%
  EXPECT_GT(nr_frac, 2.0 * lte_frac);                  // the paper's story
}

TEST(TestbedTest, BaselineRatesMatchPaper) {
  using ran::LoadRegime;
  EXPECT_DOUBLE_EQ(
      baseline_rate_bps(radio::Rat::kNr, LoadRegime::kDay,
                        Direction::kDownlink),
      880e6);
  EXPECT_DOUBLE_EQ(
      baseline_rate_bps(radio::Rat::kLte, LoadRegime::kNight,
                        Direction::kDownlink),
      200e6);
  EXPECT_DOUBLE_EQ(
      baseline_rate_bps(radio::Rat::kNr, LoadRegime::kDay,
                        Direction::kUplink),
      130e6);
  EXPECT_DOUBLE_EQ(
      baseline_rate_bps(radio::Rat::kLte, LoadRegime::kDay,
                        Direction::kUplink),
      50e6);
}

TEST(TestbedTest, DownlinkOrientationPutsRanLast) {
  sim::Simulator simr;
  TestbedOptions opt;  // downlink default
  Testbed dl(&simr, opt, 42);
  EXPECT_EQ(dl.path().forward_link(dl.hop_count() - 1).config().name.find(
                "ran"),
            0u);
  EXPECT_EQ(dl.bottleneck().config().name, "metro-bottleneck");

  opt.direction = Direction::kUplink;
  Testbed ul(&simr, opt, 42);
  EXPECT_EQ(ul.path().forward_link(0).config().name.find("ran"), 0u);
  EXPECT_EQ(ul.bottleneck().config().name, "metro-bottleneck");
}

TEST(TestbedTest, UdpAtBaselineIsNearLossless) {
  sim::Simulator simr;
  TestbedOptions opt;
  opt.cross_traffic = false;
  Testbed bed(&simr, opt, 42);
  app::UdpTest test(&simr, &bed.path(), &bed.fanout(),
                    0.95 * bed.ran_rate_bps());
  test.start(3 * sim::kSecond);
  simr.run_until(5 * sim::kSecond);
  EXPECT_LT(test.result(0, 3 * sim::kSecond).loss_ratio, 0.001);
}

}  // namespace
}  // namespace fiveg::core
