// Unit tests for the RAN: cells, deployment, measurement events, NSA
// signalling, HARQ, RRC/DRX, PRB scheduling, the NSA UE controller and the
// hand-off engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "geo/campus.h"
#include "measure/cdf.h"
#include "measure/stats.h"
#include "ran/cell.h"
#include "ran/deployment.h"
#include "ran/drx.h"
#include "ran/handoff.h"
#include "ran/harq.h"
#include "ran/measurement_events.h"
#include "ran/nsa_signaling.h"
#include "ran/prb_scheduler.h"
#include "ran/rrc.h"
#include "ran/ue.h"
#include "sim/simulator.h"

namespace fiveg::ran {
namespace {

using sim::from_millis;
using sim::to_millis;

class DeploymentFixture : public ::testing::Test {
 protected:
  DeploymentFixture()
      : campus_(geo::make_campus(sim::Rng(42))),
        dep_(make_deployment(&campus_, sim::Rng(7))) {}

  geo::CampusMap campus_;
  Deployment dep_;
};

TEST_F(DeploymentFixture, MatchesPaperTable1Counts) {
  EXPECT_EQ(dep_.cells(radio::Rat::kLte).size(), 34u);  // 34 LTE cells
  EXPECT_EQ(dep_.cells(radio::Rat::kNr).size(), 13u);   // 13 NR cells
  EXPECT_EQ(dep_.site_count(radio::Rat::kLte), 13);     // 13 eNBs
  EXPECT_EQ(dep_.site_count(radio::Rat::kNr), 6);       // 6 gNBs
}

TEST_F(DeploymentFixture, EveryGnbIsCosited) {
  std::set<int> lte_sites;
  for (const Cell& c : dep_.cells(radio::Rat::kLte)) lte_sites.insert(c.site_id);
  for (const Cell& c : dep_.cells(radio::Rat::kNr)) {
    EXPECT_TRUE(lte_sites.count(c.site_id)) << "gNB without 4G master";
  }
  // But not every eNB hosts a gNB (the paper's deployment asymmetry).
  std::set<int> nr_sites;
  for (const Cell& c : dep_.cells(radio::Rat::kNr)) nr_sites.insert(c.site_id);
  EXPECT_LT(nr_sites.size(), lte_sites.size());
}

TEST_F(DeploymentFixture, CositedSubsetHas6Sites) {
  const auto cosited = dep_.lte_cells_cosited_with_nr();
  std::set<int> sites;
  for (const Cell& c : cosited) sites.insert(c.site_id);
  EXPECT_EQ(sites.size(), 6u);
  EXPECT_LT(cosited.size(), dep_.cells(radio::Rat::kLte).size());
}

TEST_F(DeploymentFixture, NrPcisMatchPaperRange) {
  for (const Cell& c : dep_.cells(radio::Rat::kNr)) {
    EXPECT_GE(c.pci, 60);
    EXPECT_LE(c.pci, 80);
  }
}

TEST_F(DeploymentFixture, MeasureReturnsAllCells) {
  const geo::Point center = campus_.bounds().center();
  const auto meas = dep_.measure(radio::Rat::kNr, center);
  EXPECT_EQ(meas.size(), 13u);
  const CellMeasurement best = dep_.best(radio::Rat::kNr, center);
  for (const CellMeasurement& m : meas) {
    EXPECT_LE(m.rsrp_dbm, best.rsrp_dbm);
  }
}

TEST_F(DeploymentFixture, BitrateZeroOutsideCoverage) {
  // Far outside the campus there is no service.
  EXPECT_DOUBLE_EQ(
      dep_.dl_bitrate_bps(radio::Rat::kNr, {50000.0, 50000.0}), 0.0);
}

TEST_F(DeploymentFixture, BitrateReasonableNearSite) {
  const Cell& c = dep_.cells(radio::Rat::kNr).front();
  // 40 m out on boresight.
  const double az = c.site.antenna.azimuth_deg() * M_PI / 180.0;
  const geo::Point p{c.site.pos.x + 40 * std::cos(az),
                     c.site.pos.y + 40 * std::sin(az)};
  const double rate = dep_.dl_bitrate_bps(radio::Rat::kNr, p);
  EXPECT_GT(rate, 100e6);
  EXPECT_LE(rate, radio::nr3500().peak_dl_bitrate_bps() + 1);
}

TEST(MeasurementEventTest, DescriptionsCoverTable5) {
  for (const MeasEventType t :
       {MeasEventType::kA1, MeasEventType::kA2, MeasEventType::kA3,
        MeasEventType::kA4, MeasEventType::kA5, MeasEventType::kB1,
        MeasEventType::kB2}) {
    EXPECT_FALSE(describe(t).empty());
  }
}

TEST(A3DetectorTest, FiresOnlyAfterSustainedGap) {
  A3Detector d(A3Config{3.0, from_millis(324)});
  // Gap of 4 dB, but only for 200 ms: no fire.
  EXPECT_FALSE(d.update(0, -10.0, -6.0));
  EXPECT_FALSE(d.update(from_millis(200), -10.0, -6.0));
  // Dip below the hysteresis resets the dwell.
  EXPECT_FALSE(d.update(from_millis(300), -10.0, -8.0));
  // Now a sustained gap >= 324 ms fires.
  EXPECT_FALSE(d.update(from_millis(400), -10.0, -6.0));
  EXPECT_FALSE(d.update(from_millis(700), -10.0, -6.0));
  EXPECT_TRUE(d.update(from_millis(724 + 1), -10.0, -6.0));
  // And needs a fresh dwell to fire again.
  EXPECT_FALSE(d.update(from_millis(800), -10.0, -6.0));
}

TEST(A3DetectorTest, ExactHysteresisDoesNotFire) {
  A3Detector d(A3Config{3.0, from_millis(100)});
  // Gap exactly 3 dB fails the strict inequality of Eq. (1).
  EXPECT_FALSE(d.update(0, -10.0, -7.0));
  EXPECT_FALSE(d.update(from_millis(500), -10.0, -7.0));
}

TEST(A3DetectorTest, ResetClearsDwell) {
  A3Detector d(A3Config{3.0, from_millis(100)});
  EXPECT_FALSE(d.update(0, -10.0, -5.0));
  d.reset();
  EXPECT_FALSE(d.update(from_millis(150), -10.0, -5.0));  // dwell restarted
  EXPECT_TRUE(d.update(from_millis(300), -10.0, -5.0));
}

TEST(NsaSignalingTest, LatencyMeansMatchPaper) {
  EXPECT_NEAR(to_millis(expected_handoff_latency(HandoffType::k4G4G)), 30.10,
              0.2);
  EXPECT_NEAR(to_millis(expected_handoff_latency(HandoffType::k5G5G)), 108.40,
              0.2);
  EXPECT_NEAR(to_millis(expected_handoff_latency(HandoffType::k4G5G)), 80.23,
              0.2);
  // 5G-4G (not reported in the paper) sits between 4G-4G and 4G-5G.
  const double t54 = to_millis(expected_handoff_latency(HandoffType::k5G4G));
  EXPECT_GT(t54, 30.1);
  EXPECT_LT(t54, 80.2);
}

TEST(NsaSignalingTest, FiveGHandoffGoesThroughLteLegs) {
  // The NSA 5G-5G sequence must contain the release, the LTE RACH and the
  // NR re-addition — the paper's Appendix A choreography.
  const auto& seq = handoff_sequence(HandoffType::k5G5G);
  const auto has = [&](const std::string& needle) {
    for (const SignalingStep& s : seq) {
      if (s.name.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("NR resource release"));
  EXPECT_TRUE(has("LTE MAC RACH"));
  EXPECT_TRUE(has("NR MAC RACH"));
  EXPECT_TRUE(has("Addition Request"));
  // A plain 4G-4G hand-off touches no NR leg.
  for (const SignalingStep& s : handoff_sequence(HandoffType::k4G4G)) {
    EXPECT_EQ(s.name.find("NR"), std::string::npos) << s.name;
  }
}

TEST(NsaSignalingTest, SampledLatencySpreadAroundMean) {
  sim::Rng rng(3);
  measure::RunningStats s;
  for (int i = 0; i < 2000; ++i) {
    s.add(to_millis(sample_handoff_latency(HandoffType::k5G5G, rng)));
  }
  EXPECT_NEAR(s.mean(), 108.4, 2.0);
  EXPECT_GT(s.stddev(), 1.0);
  EXPECT_GT(s.min(), 50.0);
}

TEST(HarqTest, AttemptProbabilitiesMatchFig10Shape) {
  const HarqProcess lte(lte_harq());
  const HarqProcess nr(nr_harq());
  // Fig. 10 bars: 4G ~16%, 4%, 1%; 5G ~8%, 1%.
  EXPECT_NEAR(lte.attempt_probability(2), 0.16, 0.005);
  EXPECT_NEAR(lte.attempt_probability(3), 0.04, 0.005);
  EXPECT_NEAR(lte.attempt_probability(4), 0.01, 0.003);
  EXPECT_NEAR(nr.attempt_probability(2), 0.08, 0.005);
  EXPECT_NEAR(nr.attempt_probability(3), 0.01, 0.003);
  // 5G retransmissions are effectively done after 2 trials.
  EXPECT_LT(nr.attempt_probability(4), 0.002);
  // Monotone decreasing.
  for (int n = 2; n < 6; ++n) {
    EXPECT_GT(lte.attempt_probability(n), lte.attempt_probability(n + 1));
  }
}

TEST(HarqTest, ResidualLossNegligible) {
  EXPECT_LT(HarqProcess(lte_harq()).residual_loss(), 1e-12);
  EXPECT_LT(HarqProcess(nr_harq()).residual_loss(), 1e-12);
}

TEST(HarqTest, SampledAttemptsMatchPmf) {
  const HarqProcess lte(lte_harq());
  sim::Rng rng(11);
  int retx = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const int attempts = lte.sample_attempts(rng);
    EXPECT_GE(attempts, 1);
    EXPECT_LE(attempts, 32);
    retx += (attempts >= 2);
  }
  EXPECT_NEAR(static_cast<double>(retx) / n, 0.16, 0.01);
}

TEST(HarqTest, LatencyPerAttempt) {
  const HarqProcess nr(nr_harq());
  EXPECT_EQ(nr.latency_for(1), 0);
  EXPECT_EQ(nr.latency_for(3), 2 * from_millis(2.5));
}

TEST(RrcTest, TimerSetsMatchTable7) {
  const DrxConfig lte = lte_drx();
  const DrxConfig nr = nr_nsa_drx();
  EXPECT_EQ(kPagingCycle, from_millis(1280));
  EXPECT_EQ(kOnDuration, from_millis(10));
  EXPECT_EQ(kLtePromotion, from_millis(623));
  EXPECT_EQ(kLteToNr, from_millis(1238));
  EXPECT_EQ(kNrPromotion, from_millis(1681));
  EXPECT_EQ(lte.inactivity, from_millis(80));
  EXPECT_EQ(nr.inactivity, from_millis(100));
  EXPECT_EQ(lte.tail, from_millis(10720));
  EXPECT_EQ(nr.tail, from_millis(21440));  // 2x: the compounded NSA tail
  EXPECT_EQ(kLongDrxCycle, from_millis(320));
}

TEST(RrcTest, StateNames) {
  EXPECT_EQ(to_string(RrcState::kIdle), "RRC_IDLE");
  EXPECT_EQ(to_string(RrcState::kConnectedNr), "RRC_CONNECTED(NR)");
}

TEST(DrxTest, ConnectedActivityPhases) {
  const DrxConfig c = nr_nsa_drx();  // inactivity 100 ms, cycle 320, on 10
  EXPECT_EQ(connected_activity(c, from_millis(50)), RadioActivity::kTailAwake);
  // Just after inactivity: start of a DRX cycle -> on-duration.
  EXPECT_EQ(connected_activity(c, from_millis(105)), RadioActivity::kTailAwake);
  // Mid-cycle: sleeping.
  EXPECT_EQ(connected_activity(c, from_millis(100 + 200)),
            RadioActivity::kTailSleep);
  // Next cycle's on-duration.
  EXPECT_EQ(connected_activity(c, from_millis(100 + 320 + 5)),
            RadioActivity::kTailAwake);
  // After the tail: effectively idle.
  EXPECT_EQ(connected_activity(c, c.tail + from_millis(1)),
            RadioActivity::kPagingSleep);
}

TEST(DrxTest, IdleActivityPaging) {
  EXPECT_EQ(idle_activity(from_millis(5)), RadioActivity::kPagingAwake);
  EXPECT_EQ(idle_activity(from_millis(700)), RadioActivity::kPagingSleep);
  EXPECT_EQ(idle_activity(from_millis(1285)), RadioActivity::kPagingAwake);
}

TEST(DrxTest, TailDutyCycle) {
  EXPECT_NEAR(tail_duty_cycle(), 10.0 / 320.0, 1e-12);
}

TEST(PrbSchedulerTest, SoloUserGetsAlmostEverything) {
  PrbScheduler sched(radio::nr3500(), 0);
  sim::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const double f = sched.grant_fraction(rng);
    EXPECT_GE(f, 0.98);
    EXPECT_LE(f, 1.0);
  }
}

TEST(PrbSchedulerTest, FairShareWithContention) {
  PrbScheduler sched(radio::lte1800(), 3);
  sim::Rng rng(2);
  measure::RunningStats s;
  for (int i = 0; i < 2000; ++i) s.add(sched.grant_fraction(rng));
  EXPECT_NEAR(s.mean(), 0.25, 0.02);
}

TEST(NsaUeTest, AddsAndDropsNrLegWithDwell) {
  NsaUe ue;
  EXPECT_FALSE(ue.nr_attached());
  // Strong NR: add after 200 ms dwell.
  EXPECT_FALSE(ue.update(0, -80.0).has_value());
  const auto add = ue.update(from_millis(250), -80.0);
  ASSERT_TRUE(add.has_value());
  EXPECT_EQ(*add, HandoffType::k4G5G);
  ue.complete(*add);
  EXPECT_TRUE(ue.nr_attached());
  // NR lost: drop after dwell.
  EXPECT_FALSE(ue.update(from_millis(300), -120.0).has_value());
  const auto drop = ue.update(from_millis(600), -120.0);
  ASSERT_TRUE(drop.has_value());
  EXPECT_EQ(*drop, HandoffType::k5G4G);
  ue.complete(*drop);
  EXPECT_FALSE(ue.nr_attached());
}

TEST(NsaUeTest, MarginPreventsEdgeFlapping) {
  NsaUe ue;
  // RSRP between floor and floor+margin: neither adds nor (once attached)
  // drops.
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(ue.update(from_millis(100 * i), -103.0).has_value());
  }
}

class HandoffEngineFixture : public ::testing::Test {
 protected:
  HandoffEngineFixture()
      : campus_(geo::make_campus(sim::Rng(42))),
        dep_(make_deployment(&campus_, sim::Rng(7))) {}

  geo::CampusMap campus_;
  Deployment dep_;
  sim::Simulator simr_;
};

TEST_F(HandoffEngineFixture, WalkProducesHandoffs) {
  MobilityConfig cfg;
  cfg.speed_mps = 2.5;  // brisk cycling, more cells per minute
  RsrqTrace trace;
  HandoffEngine engine(&simr_, &dep_, cfg, sim::Rng(5), &trace);
  engine.start(geo::make_survey_route(campus_, 90.0));
  simr_.run_until(40 * sim::kMinute);
  EXPECT_GT(engine.records().size(), 3u);
  // Interruption windows align with records.
  ASSERT_EQ(engine.interruptions().size(), engine.records().size());
  for (std::size_t i = 0; i < engine.records().size(); ++i) {
    const auto& r = engine.records()[i];
    const auto& w = engine.interruptions()[i];
    EXPECT_EQ(w.begin, r.trigger_at);
    EXPECT_EQ(w.end - w.begin, r.latency);
    EXPECT_TRUE(engine.data_interrupted(w.begin));
    EXPECT_TRUE(engine.data_interrupted(w.end - 1));
    EXPECT_FALSE(engine.data_interrupted(w.end));
  }

  // The RSRQ trace is sampled on the mobility clock, and each 5G-5G record's
  // "quality before" is the serving RSRQ the trace holds at its trigger.
  for (const measure::TimeSeries* series :
       {&trace.nr_serving_db, &trace.nr_best_other_db}) {
    ASSERT_FALSE(series->empty());
    for (const measure::TimePoint& p : series->points()) {
      EXPECT_EQ(p.at % kMobilitySamplePeriod, 0);
    }
  }
  const auto& serving = trace.nr_serving_db.points();
  std::size_t five_g = 0;
  for (const HandoffRecord& r : engine.records()) {
    if (r.type != HandoffType::k5G5G) continue;
    ++five_g;
    const auto at = std::find_if(
        serving.begin(), serving.end(),
        [&](const measure::TimePoint& p) { return p.at == r.trigger_at; });
    ASSERT_NE(at, serving.end());
    EXPECT_EQ(at->value, r.quality_before_db);
  }
  EXPECT_GT(five_g, 0u);
}

TEST_F(HandoffEngineFixture, FiveGHandoffsSlowerThanFourG) {
  MobilityConfig cfg;
  cfg.speed_mps = 2.5;
  HandoffEngine engine(&simr_, &dep_, cfg, sim::Rng(6));
  engine.start(geo::make_survey_route(campus_, 70.0));
  simr_.run_until(60 * sim::kMinute);

  measure::RunningStats lat55, lat44;
  for (const HandoffRecord& r : engine.records()) {
    if (r.type == HandoffType::k5G5G) lat55.add(to_millis(r.latency));
    if (r.type == HandoffType::k4G4G) lat44.add(to_millis(r.latency));
  }
  if (lat55.count() > 2 && lat44.count() > 2) {
    EXPECT_GT(lat55.mean(), 2.5 * lat44.mean());
  }
  // At minimum, some 5G-5G hand-offs happened on a full survey.
  EXPECT_GT(lat55.count() + lat44.count(), 0u);
}

TEST_F(HandoffEngineFixture, QualityAfterRecordedForMostHandoffs) {
  MobilityConfig cfg;
  HandoffEngine engine(&simr_, &dep_, cfg, sim::Rng(8));
  engine.start(geo::make_survey_route(campus_, 100.0));
  simr_.run_until(90 * sim::kMinute);
  ASSERT_GT(engine.records().size(), 0u);
  std::size_t recorded = 0;
  for (const HandoffRecord& r : engine.records()) {
    recorded += r.after_recorded;
  }
  EXPECT_GT(recorded, engine.records().size() / 2);
}

}  // namespace
}  // namespace fiveg::ran
