// Unit tests for the radio layer: carriers, path loss, shadowing, antennas,
// MCS/CQI mapping and the link budget.
#include <gtest/gtest.h>

#include <cmath>

#include "geo/campus.h"
#include "measure/stats.h"
#include "radio/antenna.h"
#include "radio/carrier.h"
#include "radio/link_budget.h"
#include "radio/mcs.h"
#include "radio/pathloss.h"
#include "radio/shadowing.h"
#include "ran/cell.h"
#include "sim/rng.h"

namespace fiveg::radio {
namespace {

TEST(CarrierTest, PaperPeakRates) {
  const CarrierConfig nr = nr3500();
  // Paper: maximum PHY bit-rate 1200.98 Mbps for 5G DL with a 3:1 TDD split.
  EXPECT_NEAR(nr.peak_dl_bitrate_bps() / 1e6, 1200.98, 25.0);

  const CarrierConfig lte = lte1800();
  // Paper: 4G DL reaches ~200 Mbps at night (single user).
  EXPECT_NEAR(lte.peak_dl_bitrate_bps() / 1e6, 200.0, 15.0);
}

TEST(CarrierTest, BandsMatchPaperTable1) {
  EXPECT_EQ(lte1800().rat, Rat::kLte);
  EXPECT_NEAR(lte1800().freq_ghz, 1.85, 0.05);
  EXPECT_EQ(nr3500().rat, Rat::kNr);
  EXPECT_DOUBLE_EQ(nr3500().freq_ghz, 3.5);
  EXPECT_DOUBLE_EQ(nr3500().dl_fraction, 0.75);
}

TEST(CarrierTest, NoisePerRe) {
  // 30 kHz SCS: -174 + 44.8 + 7 = -122.2 dBm.
  EXPECT_NEAR(nr3500().noise_per_re_dbm(), -122.2, 0.1);
  EXPECT_NEAR(lte1800().noise_per_re_dbm(), -125.2, 0.1);
}

TEST(PathlossTest, MonotoneInDistanceAndFrequency) {
  double last = 0;
  for (double d = 10; d <= 1000; d *= 2) {
    const double pl = uma_nlos_db(d, 3.5);
    EXPECT_GT(pl, last);
    last = pl;
  }
  EXPECT_GT(uma_los_db(100, 3.5), uma_los_db(100, 1.85));
  EXPECT_GT(uma_nlos_db(100, 3.5), uma_los_db(100, 3.5));
  EXPECT_GT(fspl_db(200, 3.5), fspl_db(100, 3.5));
}

TEST(PathlossTest, KnownValues) {
  // UMa LoS at 100 m, 3.5 GHz: 28 + 44 + 10.88 = 82.88 dB.
  EXPECT_NEAR(uma_los_db(100, 3.5), 82.88, 0.05);
  // FSPL at 1 km, 1 GHz: 32.45 + 60 = 92.45 dB.
  EXPECT_NEAR(fspl_db(1000, 1.0), 92.45, 0.05);
}

TEST(PathlossTest, ClampsTinyDistances) {
  EXPECT_DOUBLE_EQ(uma_los_db(0.0, 3.5), uma_los_db(1.0, 3.5));
  EXPECT_DOUBLE_EQ(uma_nlos_db(-5.0, 3.5), uma_nlos_db(1.0, 3.5));
}

TEST(PathlossTest, CampusLosBlendsTowardNlos) {
  const double near_los = campus_pathloss_db(30, 3.5, true);
  EXPECT_NEAR(near_los, uma_los_db(30, 3.5), 1e-9);
  const double mid = campus_pathloss_db(120, 3.5, true);
  EXPECT_GT(mid, uma_los_db(120, 3.5));
  EXPECT_LT(mid, uma_nlos_db(120, 3.5));
  // Far out, the blend saturates at its 45% cap: clutter raises loss but
  // a LoS street never reaches the full NLoS fit.
  const double far = campus_pathloss_db(800, 3.5, true);
  const double expect = 0.55 * uma_los_db(800, 3.5) +
                        0.45 * uma_nlos_db(800, 3.5);
  EXPECT_NEAR(far, expect, 1e-9);
  EXPECT_LT(far, uma_nlos_db(800, 3.5));
  EXPECT_DOUBLE_EQ(campus_pathloss_db(400, 3.5, false), uma_nlos_db(400, 3.5));
}

TEST(ShadowingTest, DeterministicAndZeroMean) {
  const ShadowingField f(123);
  const ShadowingField g(123);
  measure::RunningStats stats;
  for (int i = 0; i < 4000; ++i) {
    const geo::Point p{std::fmod(i * 37.7, 5000.0), std::fmod(i * 91.3, 5000.0)};
    EXPECT_DOUBLE_EQ(f.at(p), g.at(p));
    stats.add(f.at(p));
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.5);
  EXPECT_NEAR(stats.stddev(), kShadowingSigmaDb, 1.2);
}

TEST(ShadowingTest, NearbyPointsCorrelated) {
  const ShadowingField f(7);
  // Points 1 m apart should differ far less than sigma; points 500 m apart
  // should be essentially independent.
  measure::RunningStats near_diff, far_diff;
  for (int i = 0; i < 500; ++i) {
    const geo::Point p{i * 13.1, i * 17.9};
    near_diff.add(std::fabs(f.at(p) - f.at({p.x + 1.0, p.y})));
    far_diff.add(std::fabs(f.at(p) - f.at({p.x + 500.0, p.y})));
  }
  EXPECT_LT(near_diff.mean(), 0.35 * far_diff.mean());
}

TEST(ShadowingTest, DifferentSeedsDiffer) {
  const ShadowingField a(1), b(2);
  double diff = 0;
  for (int i = 0; i < 100; ++i) {
    diff += std::fabs(a.at({i * 10.0, 0}) - b.at({i * 10.0, 0}));
  }
  EXPECT_GT(diff / 100.0, 1.0);
}

TEST(AntennaTest, BoresightAndRolloff) {
  const SectorAntenna a(90.0);
  EXPECT_DOUBLE_EQ(a.gain_dbi(90.0), 17.0);
  // At the 3 dB point (half the beamwidth off boresight): -3 dB.
  EXPECT_NEAR(a.gain_dbi(90.0 + 32.5), 17.0 - 3.0, 0.01);
  // Behind the antenna: floor at max_gain - front_back (18 dB default).
  EXPECT_NEAR(a.gain_dbi(270.0), 17.0 - 18.0, 0.01);
}

TEST(AntennaTest, GainTowardUsesGeometry) {
  const SectorAntenna east(0.0);
  EXPECT_DOUBLE_EQ(east.gain_toward({0, 0}, {100, 0}), 17.0);
  EXPECT_LT(east.gain_toward({0, 0}, {-100, 0}), 0.0);
}

TEST(McsTest, TableIsSaneAndMonotone) {
  int n = 0;
  const McsEntry* t = mcs_table(&n);
  ASSERT_EQ(n, 28);
  for (int i = 1; i < n; ++i) {
    EXPECT_GT(t[i].efficiency(), t[i - 1].efficiency());
    EXPECT_GT(t[i].min_sinr_db, t[i - 1].min_sinr_db);
  }
  EXPECT_NEAR(t[n - 1].efficiency(), 7.4, 0.01);  // 256-QAM, rate 0.925
}

TEST(McsTest, SelectionByThreshold) {
  EXPECT_EQ(select_mcs(30.0).index, 27);  // the paper's observed MCS
  EXPECT_EQ(select_mcs(-20.0).index, 0);
  const McsEntry mid = select_mcs(10.0);
  EXPECT_GT(mid.index, 5);
  EXPECT_LT(mid.index, 20);
}

TEST(McsTest, CqiRange) {
  EXPECT_EQ(cqi_from_sinr(-10.0), 0);
  EXPECT_EQ(cqi_from_sinr(-5.9), 1);
  EXPECT_EQ(cqi_from_sinr(40.0), 15);
  int last = 0;
  for (double s = -6; s <= 24; s += 0.5) {
    const int cqi = cqi_from_sinr(s);
    EXPECT_GE(cqi, last);
    last = cqi;
  }
}

TEST(McsTest, BitrateMatchesPeakAtHighSinr) {
  const CarrierConfig nr = nr3500();
  EXPECT_NEAR(dl_bitrate_bps(nr, 30.0, 1.0), nr.peak_dl_bitrate_bps(), 1.0);
  // Below the MCS floor the link is unusable.
  EXPECT_DOUBLE_EQ(dl_bitrate_bps(nr, -10.0, 1.0), 0.0);
}

TEST(McsTest, BitrateScalesWithPrbShare) {
  const CarrierConfig nr = nr3500();
  const double full = dl_bitrate_bps(nr, 30.0, 1.0);
  EXPECT_NEAR(dl_bitrate_bps(nr, 30.0, 0.5), full / 2, 1.0);
  EXPECT_DOUBLE_EQ(dl_bitrate_bps(nr, 30.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(dl_bitrate_bps(nr, 30.0, 2.0), full);  // clamped
}

TEST(McsTest, RankAdaptsToSinr) {
  const CarrierConfig nr = nr3500();
  // At mid SINR, rank caps at 2 layers, so rate is well under half peak.
  EXPECT_LT(dl_bitrate_bps(nr, 15.0, 1.0), 0.5 * nr.peak_dl_bitrate_bps());
  EXPECT_GT(dl_bitrate_bps(nr, 15.0, 1.0), 0.1 * nr.peak_dl_bitrate_bps());
}

TEST(McsTest, RsrqMapMonotone) {
  double last = -100;
  for (double s = -15; s <= 35; s += 1) {
    const double q = rsrq_db_from_sinr(s);
    EXPECT_GE(q, last);
    EXPECT_GE(q, -25.0);
    EXPECT_LE(q, -3.0);
    last = q;
  }
}

class LinkBudgetTest : public ::testing::Test {
 protected:
  LinkBudgetTest()
      : campus_(geo::make_campus(sim::Rng(42))), env_(&campus_, 1) {}

  geo::CampusMap campus_;
  RadioEnvironment env_;
};

TEST_F(LinkBudgetTest, RsrpDecaysWithDistance) {
  const CarrierConfig nr = nr3500();
  const TxSite tx{{250, 460}, SectorAntenna(0.0)};
  measure::RunningStats near_stats, far_stats;
  for (int i = 0; i < 30; ++i) {
    near_stats.add(env_.rsrp_dbm(nr, tx, {250 + 50 + i * 0.5, 460}));
    far_stats.add(env_.rsrp_dbm(nr, tx, {250 + 200 + i * 0.5, 460}));
  }
  EXPECT_GT(near_stats.mean(), far_stats.mean() + 10.0);
}

TEST_F(LinkBudgetTest, FiveGCoverageShorterThanFourGAtEqualPower) {
  // Walk a clear (building-free) street away from the site and find where
  // mean RSRP crosses the service floor. At equal transmit power the
  // 3.5 GHz link must die well before the 1.8 GHz one (the paper measures
  // 230 m vs 520 m; our Table-2-first calibration stretches absolute
  // ranges, so this asserts the ratio, not the metres).
  const geo::CampusMap open(geo::Rect{{0, 0}, {3000, 900}}, {});
  const RadioEnvironment env(&open, 5);
  const TxSite tx{{10, 450}, SectorAntenna(0.0)};
  const auto range_of = [&](const CarrierConfig& c) {
    for (double d = 30; d < 2900; d += 10) {
      measure::RunningStats s;
      for (int k = -3; k <= 3; ++k) {
        s.add(env.rsrp_dbm(c, tx, {10 + d, 450 + k * 17.0}));
      }
      if (s.mean() < kServiceRsrpFloorDbm) return d;
    }
    return 2900.0;
  };
  CarrierConfig nr = nr3500();
  CarrierConfig lte = lte1800();
  nr.tx_re_power_dbm = lte.tx_re_power_dbm;  // equalise
  const double nr_range = range_of(nr);
  const double lte_range = range_of(lte);
  EXPECT_LT(nr_range, 0.75 * lte_range);
  // The paper's ratio: 230/520 ~ 0.44.
  EXPECT_NEAR(nr_range / lte_range, 0.44, 0.25);
}

TEST_F(LinkBudgetTest, SinrDropsWithInterference) {
  const CarrierConfig nr = nr3500();
  const TxSite serving{{250, 460}, SectorAntenna(0.0)};
  const TxSite interferer{{250, 520}, SectorAntenna(180.0)};
  const geo::Point ue{320, 460};
  double rsrp[2] = {env_.rsrp_dbm(nr, serving, ue),
                    env_.rsrp_dbm(nr, interferer, ue)};
  double lin[2], sinr[2], rsrq[2];
  ran::derive_interference(rsrp, lin, 1, nr.noise_per_re_dbm(), 1.0, sinr,
                           rsrq);
  const double clean = sinr[0];
  ran::derive_interference(rsrp, lin, 2, nr.noise_per_re_dbm(), 1.0, sinr,
                           rsrq);
  EXPECT_LT(sinr[0], clean);
}

TEST_F(LinkBudgetTest, IndoorWeakerThanOutdoor) {
  const CarrierConfig nr = nr3500();
  const geo::Building& b = campus_.buildings().front();
  const geo::Point indoor = b.footprint.center();
  const geo::Point outdoor{indoor.x, b.footprint.min.y - 3.0};
  const TxSite tx{{indoor.x, b.footprint.min.y - 100.0}, SectorAntenna(90.0)};
  EXPECT_GT(env_.rsrp_dbm(nr, tx, outdoor), env_.rsrp_dbm(nr, tx, indoor));
}

// Property sweep: for any position, 3.5 GHz RSRP from the same site never
// beats 1.8 GHz by more than the shadowing decorrelation allows.
class BandGapPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BandGapPropertyTest, HigherBandHasHigherLoss) {
  const geo::CampusMap campus = geo::make_campus(sim::Rng(42));
  const RadioEnvironment env(&campus, 99);
  sim::Rng rng(GetParam());
  const TxSite tx{{250, 460}, SectorAntenna(rng.uniform(0, 360))};
  CarrierConfig lte = lte1800();
  CarrierConfig nr = nr3500();
  // Equalise the calibration constants so only propagation differs.
  nr.tx_re_power_dbm = lte.tx_re_power_dbm;
  measure::RunningStats gap;
  for (int i = 0; i < 200; ++i) {
    const geo::Point p = campus.random_point(rng);
    gap.add(env.rsrp_dbm(lte, tx, p) - env.rsrp_dbm(nr, tx, p));
  }
  // On average the 3.5 GHz link is weaker (more path + penetration loss).
  EXPECT_GT(gap.mean(), 3.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandGapPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace fiveg::radio
