// Tests for the energy module: power model calibration properties, the
// trace-driven RRC/DRX replay machine, policies and pwrStrip composition.
#include <gtest/gtest.h>

#include "energy/policies.h"
#include "energy/power_model.h"
#include "energy/power_strip.h"
#include "energy/rrc_power_machine.h"
#include "energy/traffic_trace.h"

namespace fiveg::energy {
namespace {

using sim::from_millis;
using sim::kSecond;

TEST(PowerModelTest, NrDrawsTwoToThreeTimesLte) {
  const RadioPower lte = lte_radio_power();
  const RadioPower nr = nr_radio_power();
  const double lte_active = lte.active_mw(130);
  const double nr_active = nr.active_mw(880);
  EXPECT_GT(nr_active / lte_active, 1.8);
  EXPECT_LT(nr_active / lte_active, 3.0);
  EXPECT_GT(nr.tail_awake_mw, lte.tail_awake_mw);
}

TEST(PowerModelTest, SaturatedEnergyPerBitRatioNearFour) {
  // Fig. 22's core claim: at saturation 5G moves a bit for ~1/4 the energy.
  const double lte_per_bit = lte_radio_power().active_mw(130) / 130e6;
  const double nr_per_bit = nr_radio_power().active_mw(880) / 880e6;
  EXPECT_NEAR(lte_per_bit / nr_per_bit, 4.0, 0.7);
}

TEST(PowerModelTest, RadioDrawOrdering) {
  const RadioPower p = nr_radio_power();
  EXPECT_GT(radio_draw_mw(p, ran::RadioActivity::kTransfer, 880),
            radio_draw_mw(p, ran::RadioActivity::kTailAwake, 0));
  EXPECT_GT(radio_draw_mw(p, ran::RadioActivity::kTailAwake, 0),
            radio_draw_mw(p, ran::RadioActivity::kTailSleep, 0));
  EXPECT_GT(radio_draw_mw(p, ran::RadioActivity::kPagingAwake, 0),
            radio_draw_mw(p, ran::RadioActivity::kPagingSleep, 0));
}

TEST(PowerModelTest, DailyAppsExist) {
  int n = 0;
  const AppProfile* apps = daily_apps(&n);
  ASSERT_EQ(n, 4);
  EXPECT_STREQ(apps[0].name, "Browser");
  EXPECT_STREQ(apps[3].name, "Download");
  EXPECT_GT(apps[3].dl_demand_bps, 100e6);  // saturating
}

TEST(TrafficTraceTest, Generators) {
  const TrafficTrace web = web_browsing_trace(sim::Rng(1));
  ASSERT_EQ(web.size(), 10u);
  EXPECT_EQ(web.front().at, 0);
  EXPECT_EQ(web.back().at, 27 * kSecond);
  EXPECT_GT(trace_bytes(web), 5'000'000u);

  const TrafficTrace video = video_telephony_trace(sim::Rng(2));
  // 60 s x 30 fps (integer nanosecond frame spacing leaves one straggler).
  EXPECT_GE(video.size(), 1800u);
  EXPECT_LE(video.size(), 1801u);
  // ~45 Mbps x 60 s / 8 = ~337 MB.
  EXPECT_NEAR(static_cast<double>(trace_bytes(video)), 337e6, 60e6);

  const TrafficTrace file = file_transfer_trace(123);
  ASSERT_EQ(file.size(), 1u);
  EXPECT_EQ(trace_bytes(file), 123u);
}

TEST(PoliciesTest, PromotionDelays) {
  const sim::Time lte_pro = from_millis(623);
  const sim::Time nr_pro = from_millis(1681);
  EXPECT_EQ(promotion_delay(RadioModel::kLteOnly), lte_pro);
  EXPECT_EQ(promotion_delay(RadioModel::kNrNsa), nr_pro);
  // The Oracle schedules sleep, not signalling: it still promotes.
  EXPECT_EQ(promotion_delay(RadioModel::kNrOracle), nr_pro);
  EXPECT_EQ(promotion_delay(RadioModel::kDynamicSwitch), lte_pro);
  EXPECT_EQ(initial_rat(RadioModel::kNrNsa), radio::Rat::kNr);
  EXPECT_EQ(initial_rat(RadioModel::kDynamicSwitch), radio::Rat::kLte);
  EXPECT_EQ(to_string(RadioModel::kDynamicSwitch), "Dyn. switch");
}

class ReplayTest : public ::testing::Test {
 protected:
  RrcPowerMachine machine_;
};

TEST_F(ReplayTest, EmptyTraceIsFree) {
  const EnergyResult r = machine_.replay({}, RadioModel::kNrNsa);
  EXPECT_DOUBLE_EQ(r.radio_joules, 0.0);
}

TEST_F(ReplayTest, ServesAllBytes) {
  const TrafficTrace t = file_transfer_trace(100'000'000);  // 100 MB
  for (const RadioModel m :
       {RadioModel::kLteOnly, RadioModel::kNrNsa, RadioModel::kNrOracle,
        RadioModel::kDynamicSwitch}) {
    const EnergyResult r = machine_.replay(t, m);
    EXPECT_NEAR(r.served_bits, 8e8, 2e6) << to_string(m);
    EXPECT_GT(r.completion, 0) << to_string(m);
    EXPECT_GT(r.radio_joules, 0.0) << to_string(m);
  }
}

TEST_F(ReplayTest, LteTakesLongerOnBulk) {
  const TrafficTrace t = file_transfer_trace(500'000'000);
  const EnergyResult lte = machine_.replay(t, RadioModel::kLteOnly);
  const EnergyResult nsa = machine_.replay(t, RadioModel::kNrNsa);
  // 880 vs 130 Mbps: ~6.8x longer on LTE.
  EXPECT_GT(sim::to_seconds(lte.completion), 5.0 * sim::to_seconds(nsa.completion));
  // And despite the lower power, more total energy (Table 4's File row).
  EXPECT_GT(lte.radio_joules, 1.5 * nsa.radio_joules);
}

TEST_F(ReplayTest, NsaWastesEnergyOnShortBursts) {
  // Table 4's Web row: NSA costs more than LTE for tail-dominated traffic.
  const TrafficTrace t = web_browsing_trace(sim::Rng(3));
  const EnergyResult lte = machine_.replay(t, RadioModel::kLteOnly);
  const EnergyResult nsa = machine_.replay(t, RadioModel::kNrNsa);
  EXPECT_GT(nsa.radio_joules, 1.15 * lte.radio_joules);
}

TEST_F(ReplayTest, OracleBeatsNsa) {
  for (const auto& trace :
       {web_browsing_trace(sim::Rng(4)), file_transfer_trace(300'000'000)}) {
    const EnergyResult nsa = machine_.replay(trace, RadioModel::kNrNsa);
    const EnergyResult oracle = machine_.replay(trace, RadioModel::kNrOracle);
    EXPECT_LT(oracle.radio_joules, nsa.radio_joules);
  }
}

TEST_F(ReplayTest, DynamicSwitchMatchesLteOnWeb) {
  // Web bursts drain fast on LTE, so the dynamic policy never escalates
  // and its cost tracks the LTE baseline (85.41 vs 85.44 J in Table 4).
  const TrafficTrace t = web_browsing_trace(sim::Rng(5));
  const EnergyResult lte = machine_.replay(t, RadioModel::kLteOnly);
  const EnergyResult dyn = machine_.replay(t, RadioModel::kDynamicSwitch);
  EXPECT_NEAR(dyn.radio_joules, lte.radio_joules, 0.05 * lte.radio_joules);
}

TEST_F(ReplayTest, DynamicSwitchEscalatesOnBulk) {
  const TrafficTrace t = file_transfer_trace(500'000'000);
  const EnergyResult dyn = machine_.replay(t, RadioModel::kDynamicSwitch);
  const EnergyResult lte = machine_.replay(t, RadioModel::kLteOnly);
  const EnergyResult nsa = machine_.replay(t, RadioModel::kNrNsa);
  // Escalation makes bulk cheap like NSA, not expensive like LTE.
  EXPECT_LT(dyn.radio_joules, 0.6 * lte.radio_joules);
  EXPECT_LT(dyn.radio_joules, 1.3 * nsa.radio_joules);
}

TEST_F(ReplayTest, PowerTraceShowsTailDecay) {
  // Fig. 23's shape: active spike, then tail, then idle floor.
  const TrafficTrace t = file_transfer_trace(50'000'000);
  const EnergyResult r = machine_.replay(t, RadioModel::kNrNsa);
  ASSERT_GT(r.power_trace_mw.size(), 10u);
  const auto& pts = r.power_trace_mw.points();
  const double active_draw = pts.front().value;
  const double final_draw = pts.back().value;
  EXPECT_GT(active_draw, 1500.0);  // promotion/transfer region
  EXPECT_LE(final_draw, 700.0);    // tail floor or idle by the end
}

TEST_F(ReplayTest, NsaTailLongerThanLte) {
  const TrafficTrace t = file_transfer_trace(10'000'000);
  const EnergyResult lte = machine_.replay(t, RadioModel::kLteOnly);
  const EnergyResult nsa = machine_.replay(t, RadioModel::kNrNsa);
  const sim::Time lte_tail = lte.duration - lte.completion;
  const sim::Time nsa_tail = nsa.duration - nsa.completion;
  EXPECT_NEAR(sim::to_seconds(nsa_tail) / sim::to_seconds(lte_tail), 2.0, 0.3);
}

TEST(PwrStripTest, AppSessionBreakdownFig21Shape) {
  RrcPowerMachine machine;
  int n = 0;
  const AppProfile* apps = daily_apps(&n);
  for (int i = 0; i < n; ++i) {
    const DeviceEnergyBreakdown nr = measure_app_session(
        machine, RadioModel::kNrNsa, apps[i], 60 * kSecond);
    const DeviceEnergyBreakdown lte = measure_app_session(
        machine, RadioModel::kLteOnly, apps[i], 60 * kSecond);
    // 5G radio dominates the budget and beats the screen's share.
    EXPECT_GT(nr.radio_j, nr.screen_j) << apps[i].name;
    EXPECT_GT(nr.radio_j, 1.5 * lte.radio_j) << apps[i].name;
    EXPECT_GT(nr.total_j(), lte.total_j()) << apps[i].name;
  }
}

TEST(PwrStripTest, FiveGRadioShareNearPaper) {
  RrcPowerMachine machine;
  int n = 0;
  const AppProfile* apps = daily_apps(&n);
  double share_sum = 0;
  for (int i = 0; i < n; ++i) {
    share_sum +=
        measure_app_session(machine, RadioModel::kNrNsa, apps[i], 60 * kSecond)
            .radio_share();
  }
  // Paper: 55.18% average across the four apps.
  EXPECT_NEAR(share_sum / n, 0.5518, 0.12);
}

TEST(PwrStripTest, EnergyPerBitDecreasesWithDuration) {
  RrcPowerMachine machine;
  for (const RadioModel m : {RadioModel::kLteOnly, RadioModel::kNrNsa}) {
    double last = 1e18;
    for (const double secs : {2.0, 10.0, 30.0, 50.0}) {
      const double uj =
          saturated_energy_per_bit_uj(machine, m, sim::from_seconds(secs));
      EXPECT_LT(uj, last) << to_string(m) << " " << secs;
      last = uj;
    }
  }
  // Long-transfer ratio approaches the paper's 4x.
  const double lte50 = saturated_energy_per_bit_uj(
      machine, RadioModel::kLteOnly, 50 * kSecond);
  const double nr50 =
      saturated_energy_per_bit_uj(machine, RadioModel::kNrNsa, 50 * kSecond);
  EXPECT_NEAR(lte50 / nr50, 4.0, 1.0);
}

}  // namespace
}  // namespace fiveg::energy
