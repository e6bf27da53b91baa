// Property tests for the city-scale UE core: the row kernel (one mast
// geometry pass shared by sectors and RATs) and the batched SoA rows must
// be bit-identical to the per-site path, the row cache must reuse only
// when a recompute would reproduce the row, its accounting must stay per
// RAT, and the extracted a3_step/nsa_step helpers must match their
// stateful counterparts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "fault/fault.h"
#include "geo/campus.h"
#include "geo/route.h"
#include "ran/cell.h"
#include "ran/deployment.h"
#include "ran/measurement_events.h"
#include "ran/ue.h"
#include "ran/ue_cohort.h"
#include "sim/simulator.h"

namespace fiveg::ran {
namespace {

// A batch of UE positions mixing outdoor, indoor and arbitrary points.
std::vector<geo::Point> random_ues(const geo::CampusMap& campus,
                                   sim::Rng& rng, int n) {
  std::vector<geo::Point> ues;
  ues.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ues.push_back(rng.bernoulli(0.5) ? campus.random_point(rng)
                                     : campus.random_outdoor_point(rng));
  }
  return ues;
}

// The per-site reference for one RAT at `ue`: rsrp_dbm() per cell, then
// derive_interference(). Returns rsrp, sinr, rsrq concatenated.
std::vector<double> reference_row(const Deployment& dep, radio::Rat rat,
                                  const geo::Point& ue) {
  const std::vector<Cell>& cells = dep.cells(rat);
  const radio::CarrierConfig& carrier = dep.carrier(rat);
  const std::size_t n = cells.size();
  std::vector<double> v(3 * n), lin(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = dep.env().rsrp_dbm(carrier, cells[i].site, ue);
  }
  derive_interference(v.data(), lin.data(), n, carrier.noise_per_re_dbm(),
                      kInterfererLoad, v.data() + n, v.data() + 2 * n);
  return v;
}

std::vector<double> flatten(const std::vector<CellMeasurement>& meas) {
  const std::size_t n = meas.size();
  std::vector<double> v(3 * n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = meas[i].rsrp_dbm;
    v[n + i] = meas[i].sinr_db;
    v[2 * n + i] = meas[i].rsrq_db;
  }
  return v;
}

// Every row path — the both-RAT pass, the one-RAT Deployment queries and
// measure_cells on the cell list — against the per-site reference, with
// EXPECT_EQ on every double (any bit difference fails).
void expect_rows_match_reference(const Deployment& dep,
                                 const std::vector<geo::Point>& ues) {
  Deployment::RowScratch scratch;
  std::vector<CellMeasurement> lte_meas, nr_meas, one;
  for (const geo::Point& ue : ues) {
    std::vector<double> rows[2];
    for (const radio::Rat rat : {radio::Rat::kLte, radio::Rat::kNr}) {
      rows[rat == radio::Rat::kNr].resize(3 * dep.cells(rat).size());
    }
    const auto row_of = [](std::vector<double>& v) {
      const std::size_t n = v.size() / 3;
      return MeasRow{v.data(), v.data() + n, v.data() + 2 * n};
    };
    dep.measure_rows(ue, scratch, row_of(rows[0]), row_of(rows[1]));
    dep.measure_into(ue, lte_meas, nr_meas);
    for (const radio::Rat rat : {radio::Rat::kLte, radio::Rat::kNr}) {
      const std::vector<Cell>& cells = dep.cells(rat);
      const radio::CarrierConfig& carrier = dep.carrier(rat);
      const std::vector<double> ref = reference_row(dep, rat, ue);
      EXPECT_EQ(rows[rat == radio::Rat::kNr], ref);
      EXPECT_EQ(flatten(rat == radio::Rat::kLte ? lte_meas : nr_meas), ref);
      dep.measure_into(rat, ue, one);
      EXPECT_EQ(flatten(one), ref);
      EXPECT_EQ(flatten(measure_cells(dep.env(), carrier, cells, ue)), ref);
      const CellMeasurement best = dep.best(rat, ue);
      ASSERT_NE(best.cell, nullptr);
      const std::size_t n = cells.size();
      EXPECT_EQ(best.rsrp_dbm, *std::max_element(ref.begin(), ref.begin() + n));
    }
  }
}

// The city grid, both RATs on every mast, across campus sizes and
// indoor/outdoor mixes.
TEST(CohortBatchTest, SweepMatchesPerSiteReferenceBitExact) {
  const struct {
    double width_m, height_m, open_frac;
    int rings, n_ue;
  } kCases[] = {
      {500.0, 920.0, 0.2, 1, 40},
      {900.0, 900.0, 0.35, 2, 60},
  };
  int cs = 0;
  for (const auto& c : kCases) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(cs++);
    const geo::CampusMap campus = geo::make_city_campus(
        sim::Rng(seed).fork("campus"), c.width_m, c.height_m, c.open_frac);
    ran::CityGridConfig grid;
    grid.rings = c.rings;
    const Deployment dep =
        make_city_deployment(&campus, sim::Rng(seed).fork("dep"), grid);
    EXPECT_EQ(dep.masts().size(), c.rings == 1 ? 7u : 19u);
    sim::Rng rng = sim::Rng(seed).fork("ues");
    expect_rows_match_reference(dep, random_ues(campus, rng, c.n_ue));
  }
}

// The scratch-buffer overload must agree with the allocating one.
TEST(CohortBatchTest, ScratchOverloadMatches) {
  const geo::CampusMap campus = geo::make_campus(sim::Rng(7));
  const Deployment dep = make_deployment(&campus, sim::Rng(11));
  sim::Rng rng(13);
  std::vector<CellMeasurement> out;
  for (int i = 0; i < 20; ++i) {
    const geo::Point ue = campus.random_point(rng);
    for (const radio::Rat rat : {radio::Rat::kLte, radio::Rat::kNr}) {
      const auto fresh =
          measure_cells(dep.env(), dep.carrier(rat), dep.cells(rat), ue);
      measure_cells(dep.env(), dep.carrier(rat), dep.cells(rat), ue, out);
      ASSERT_EQ(fresh.size(), out.size());
      for (std::size_t k = 0; k < fresh.size(); ++k) {
        EXPECT_EQ(fresh[k].cell, out[k].cell);
        EXPECT_EQ(fresh[k].rsrp_dbm, out[k].rsrp_dbm);
        EXPECT_EQ(fresh[k].sinr_db, out[k].sinr_db);
        EXPECT_EQ(fresh[k].rsrq_db, out[k].rsrq_db);
      }
    }
  }
}

// The paper campus: 13 LTE masts of 2 or 3 sectors, NR on a strict subset
// of 6 of them.
TEST(CohortBatchTest, RowKernelMatchesReferenceOnPaperCampus) {
  const core::Scenario sc(42);
  const Deployment& dep = sc.deployment();
  EXPECT_EQ(dep.masts().size(), 13u);
  EXPECT_EQ(dep.site_count(radio::Rat::kNr), 6);
  sim::Rng rng = sim::Rng(42).fork("ues");
  expect_rows_match_reference(dep, random_ues(sc.campus(), rng, 150));
}

// Masts are matched by exact position, not by site_id or by order:
// co-sited cells interleaved with other masts' cells, an NR-only mast,
// site_ids that lie, and two masts one ulp apart.
TEST(CohortBatchTest, RowKernelMatchesReferenceOnInterleavedMasts) {
  const geo::CampusMap campus = geo::make_campus(sim::Rng(5));
  const geo::Rect& b = campus.bounds();
  const geo::Point a{b.min.x + 100.0, b.min.y + 200.0};
  const geo::Point c{b.min.x + 400.0, b.min.y + 700.0};
  const geo::Point d{b.min.x + 250.0, b.min.y + 450.0};
  const geo::Point a_next{std::nextafter(a.x, 1e9), a.y};
  const geo::Point nr_only{b.min.x + 60.0, b.min.y + 880.0};
  const auto cell = [](int pci, radio::Rat rat, geo::Point pos, double az) {
    return Cell{pci, /*site_id=*/7, rat, {pos, radio::SectorAntenna(az)}};
  };
  const std::vector<Cell> lte = {
      cell(1, radio::Rat::kLte, a, 10.0),
      cell(2, radio::Rat::kLte, c, 130.0),
      cell(3, radio::Rat::kLte, a, 250.0),
      cell(4, radio::Rat::kLte, d, 0.0),
      cell(5, radio::Rat::kLte, c, 310.0),
      cell(6, radio::Rat::kLte, a_next, 90.0),
      cell(7, radio::Rat::kLte, a, 170.0),
  };
  const std::vector<Cell> nr = {
      cell(11, radio::Rat::kNr, c, 45.0),
      cell(12, radio::Rat::kNr, nr_only, 200.0),
      cell(13, radio::Rat::kNr, a, 100.0),
      cell(14, radio::Rat::kNr, c, 225.0),
      cell(15, radio::Rat::kNr, a_next, 300.0),
  };
  const Deployment dep(&campus, 99, lte, nr);
  EXPECT_EQ(dep.masts(), (std::vector<geo::Point>{a, c, d, a_next, nr_only}));
  sim::Rng rng = sim::Rng(5).fork("ues");
  std::vector<geo::Point> ues = random_ues(campus, rng, 150);
  // On a mast and within a metre of one (the clamped distance).
  ues.insert(ues.end(), {a, c, nr_only, {a.x + 0.5, a.y}, {c.x, c.y - 0.2}});
  expect_rows_match_reference(dep, ues);
}

// An open coverage-hole window: the fault offset enters every row path
// the same way it enters the reference.
TEST(CohortBatchTest, RowKernelMatchesReferenceUnderCoverageOffset) {
  fault::FaultPlan plan;
  plan.add({.kind = fault::FaultKind::kCoverageHole,
            .begin = sim::kSecond,
            .end = 100 * sim::kSecond,
            .offset_db = 17.5});
  fault::Runtime rt(&plan, 3);
  fault::ScopedFaults scoped(&rt);
  sim::Simulator simr;
  fault::arm(simr);
  simr.run_until(2 * sim::kSecond);
  ASSERT_NE(rt.coverage_offset_db(), 0.0);

  const core::CityScenario city(7);
  sim::Rng rng = sim::Rng(7).fork("ues");
  expect_rows_match_reference(city.deployment(),
                              random_ues(city.campus(), rng, 60));
  const core::Scenario paper(7);
  expect_rows_match_reference(paper.deployment(),
                              random_ues(paper.campus(), rng, 60));
}

// The geometry and radio layers hold no mutable state, so one deployment
// may serve several threads at once: four threads sweeping the Fig. 2 grid
// (50x46, both RATs) against one shared Scenario must each reproduce a
// serial pass bit for bit.
TEST(CohortBatchTest, SharedDeploymentSweepsMatchSerialAcrossThreads) {
  const core::Scenario scenario(42);
  const Deployment& dep = scenario.deployment();
  const geo::Rect& b = scenario.campus().bounds();
  const auto sweep = [&] {
    std::vector<double> values;
    for (const radio::Rat rat : {radio::Rat::kLte, radio::Rat::kNr}) {
      for (int r = 0; r < 46; ++r) {
        for (int c = 0; c < 50; ++c) {
          const geo::Point p{b.min.x + (c + 0.5) * b.width() / 50,
                             b.min.y + (r + 0.5) * b.height() / 46};
          for (const CellMeasurement& m :
               measure_cells(dep.env(), dep.carrier(rat), dep.cells(rat), p)) {
            values.insert(values.end(), {m.rsrp_dbm, m.sinr_db, m.rsrq_db});
          }
        }
      }
    }
    // The Deployment's own both-RAT pass over the same grid.
    std::vector<CellMeasurement> lte, nr;
    for (int r = 0; r < 46; ++r) {
      for (int c = 0; c < 50; ++c) {
        dep.measure_into({b.min.x + (c + 0.5) * b.width() / 50,
                          b.min.y + (r + 0.5) * b.height() / 46},
                         lte, nr);
        for (const auto* meas : {&lte, &nr}) {
          for (const CellMeasurement& m : *meas) {
            values.insert(values.end(), {m.rsrp_dbm, m.sinr_db, m.rsrq_db});
          }
        }
      }
    }
    return values;
  };
  const std::vector<double> serial = sweep();
  std::vector<std::vector<double>> parallel(4);
  std::vector<std::thread> threads;
  for (std::vector<double>& out : parallel) {
    threads.emplace_back([&sweep, &out] { out = sweep(); });
  }
  for (std::thread& t : threads) t.join();
  for (const std::vector<double>& values : parallel) {
    ASSERT_EQ(values.size(), serial.size());
    EXPECT_EQ(std::memcmp(values.data(), serial.data(),
                          serial.size() * sizeof(double)),
              0);
  }
}

class CohortFixture : public ::testing::Test {
 protected:
  CohortFixture()
      : campus_(geo::make_city_campus(sim::Rng(42).fork("campus"), 640.0,
                                      640.0, 0.3)),
        dep_(make_city_deployment(&campus_, sim::Rng(42).fork("dep"),
                                  {.rings = 1})) {}

  UeCohort make_cohort(int n_stationary, int n_movers) {
    CohortConfig cfg;
    cfg.name = "test";
    UeCohort cohort(&dep_, cfg, sim::Rng(42).fork("cohort"));
    sim::Rng rng = sim::Rng(42).fork("place");
    for (int i = 0; i < n_stationary; ++i) {
      cohort.add_stationary(campus_.random_point(rng));
    }
    for (int i = 0; i < n_movers; ++i) {
      cohort.add_route(geo::make_waypoint_route(campus_, rng, 4), 1.4);
    }
    return cohort;
  }

  geo::CampusMap campus_;
  Deployment dep_;
};

// Cohort measurement rows = the scalar Deployment::measure() values,
// bit for bit, sweep after sweep (movers force recomputes, stationaries
// hit the row cache).
TEST_F(CohortFixture, CohortRowsMatchScalarAcrossSweeps) {
  UeCohort cohort = make_cohort(30, 6);
  for (int s = 0; s < 3; ++s) {
    const sim::Time now = s * sim::kSecond;
    cohort.sweep(now);
    for (const radio::Rat rat : {radio::Rat::kLte, radio::Rat::kNr}) {
      const auto& block = cohort.block(rat);
      const std::size_t n = block.n_cells;
      for (std::size_t u = 0; u < cohort.size(); ++u) {
        const auto scalar = dep_.measure(rat, cohort.position(u));
        ASSERT_EQ(scalar.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(scalar[i].rsrp_dbm, block.rsrp_dbm[u * n + i]);
          EXPECT_EQ(scalar[i].sinr_db, block.sinr_db[u * n + i]);
          EXPECT_EQ(scalar[i].rsrq_db, block.rsrq_db[u * n + i]);
        }
      }
    }
  }
}

// The row accounting of a cohort that filled each RAT's rows on their own:
// a request for a RAT counts as reused when that RAT's last request was at
// the same key (position bits, fault offset), else as computed.
struct PerRatAccounting {
  struct Key {
    double x, y, offset;
    bool operator==(const Key& o) const {
      return std::memcmp(this, &o, sizeof(Key)) == 0;
    }
  };
  std::vector<std::optional<Key>> last[2];
  std::uint64_t computed = 0, reused = 0;

  void request(const UeCohort& cohort, radio::Rat rat, double offset) {
    std::vector<std::optional<Key>>& keys = last[rat == radio::Rat::kNr];
    keys.resize(cohort.size());
    for (std::size_t u = 0; u < cohort.size(); ++u) {
      const Key k{cohort.position(u).x, cohort.position(u).y, offset};
      if (keys[u] == k) {
        ++reused;
      } else {
        keys[u] = k;
        ++computed;
      }
    }
  }
};

// rows_computed/rows_reused keep their per-RAT, per-request meaning for
// every call order, though a stale UE now gets both rows in one pass, and
// the block a call returns holds that RAT's rows at the UE's current
// position. The last order moves UEs away and back between requests of the
// two RATs, so a RAT's own key matches again while the shared fill has
// moved on.
TEST_F(CohortFixture, RowAccountingIsPerRatForEveryCallOrder) {
  enum class Op { kAdvance, kLte, kNr, kSweep };
  struct Step {
    Op op;
    int at_s = 0;  // kAdvance and kSweep: the time, in seconds
  };
  // L and N request one RAT's rows; A(s) advances to s seconds, S(s)
  // sweeps at s seconds.
  const Step L{Op::kLte}, N{Op::kNr};
  const auto A = [](int at_s) { return Step{Op::kAdvance, at_s}; };
  const auto S = [](int at_s) { return Step{Op::kSweep, at_s}; };
  // Four sample periods: advance to each, then `per_period` at that time.
  const auto repeat = [&](std::vector<Step> per_period) {
    std::vector<Step> steps;
    for (int t = 0; t < 4; ++t) {
      steps.push_back(A(t));
      for (Step step : per_period) {
        step.at_s = t;
        steps.push_back(step);
      }
    }
    return steps;
  };
  int order = 0;
  const auto check = [&](const std::vector<Step>& steps) {
    SCOPED_TRACE("order " + std::to_string(order++));
    UeCohort cohort = make_cohort(12, 6);
    PerRatAccounting model;
    const auto check_block = [&](radio::Rat rat) {
      const UeCohort::MeasBlock& block = cohort.block(rat);
      const std::size_t n = block.n_cells;
      for (std::size_t u = 0; u < cohort.size(); ++u) {
        const std::vector<double> ref =
            flatten(dep_.measure(rat, cohort.position(u)));
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(block.rsrp_dbm[u * n + i], ref[i]);
          ASSERT_EQ(block.sinr_db[u * n + i], ref[n + i]);
          ASSERT_EQ(block.rsrq_db[u * n + i], ref[2 * n + i]);
        }
      }
    };
    for (const Step& step : steps) {
      switch (step.op) {
        case Op::kAdvance:
          cohort.advance_positions(step.at_s * sim::kSecond);
          break;
        case Op::kLte:
        case Op::kNr: {
          const radio::Rat rat =
              step.op == Op::kLte ? radio::Rat::kLte : radio::Rat::kNr;
          const UeCohort::MeasBlock& block = cohort.measure_batch(rat);
          EXPECT_EQ(&block, &cohort.block(rat));
          model.request(cohort, rat, 0.0);
          check_block(rat);
          break;
        }
        case Op::kSweep:
          cohort.sweep(step.at_s * sim::kSecond);
          model.request(cohort, radio::Rat::kLte, 0.0);
          model.request(cohort, radio::Rat::kNr, 0.0);
          check_block(radio::Rat::kLte);
          check_block(radio::Rat::kNr);
          break;
      }
      ASSERT_EQ(cohort.stats().rows_computed, model.computed);
      ASSERT_EQ(cohort.stats().rows_reused, model.reused);
    }
    EXPECT_GT(model.reused, 0u);
  };
  check(repeat({L, N}));
  check(repeat({N, L}));
  check(repeat({L, L}));
  check(repeat({N}));
  check(repeat({L, N, S(0)}));  // perfbench city_cohort
  // Away and back between requests of the two RATs.
  check({A(1), L, A(2), N, A(1), L, N, A(2), L, N, S(3), N});
}

// Stationary UEs never recompute after the first sweep; the reused rows
// stay bit-identical.
TEST_F(CohortFixture, RowCacheReusesStationaryRows) {
  UeCohort cohort = make_cohort(25, 0);
  cohort.sweep(0);
  const auto first_lte = cohort.block(radio::Rat::kLte).rsrp_dbm;
  EXPECT_EQ(cohort.stats().rows_computed, 2u * 25u);  // both RATs
  EXPECT_EQ(cohort.stats().rows_reused, 0u);
  cohort.sweep(sim::kSecond);
  EXPECT_EQ(cohort.stats().rows_computed, 2u * 25u);
  EXPECT_EQ(cohort.stats().rows_reused, 2u * 25u);
  EXPECT_EQ(cohort.block(radio::Rat::kLte).rsrp_dbm, first_lte);
}

// A coverage-hole window flips the fault offset, which must invalidate
// every cached row (the key includes the offset) and shift RSRP by
// exactly the offset. The deployment is built inside the fault scope so
// its RadioEnvironment sees the runtime, like the Runner's per-experiment
// setup.
TEST(CohortFaultTest, CoverageOffsetInvalidatesRows) {
  fault::FaultPlan plan;
  plan.add({.kind = fault::FaultKind::kCoverageHole,
            .begin = sim::kSecond,
            .end = 100 * sim::kSecond,
            .offset_db = 30.0});
  fault::Runtime rt(&plan, 99);
  fault::ScopedFaults scoped(&rt);
  sim::Simulator simr;
  fault::arm(simr);

  const geo::CampusMap campus = geo::make_city_campus(
      sim::Rng(42).fork("campus"), 640.0, 640.0, 0.3);
  const Deployment dep =
      make_city_deployment(&campus, sim::Rng(42).fork("dep"), {.rings = 1});
  CohortConfig cfg;
  cfg.name = "fault_test";
  UeCohort cohort(&dep, cfg, sim::Rng(42).fork("cohort"));
  sim::Rng place = sim::Rng(42).fork("place");
  for (int i = 0; i < 10; ++i) {
    cohort.add_stationary(campus.random_point(place));
  }
  cohort.sweep(0);
  const auto before = cohort.block(radio::Rat::kNr).rsrp_dbm;
  const std::uint64_t computed_before = cohort.stats().rows_computed;

  simr.run_until(2 * sim::kSecond);  // the hole opens at t=1s
  cohort.sweep(simr.now());
  EXPECT_EQ(cohort.stats().rows_computed, computed_before + 2u * 10u);
  const auto& after = cohort.block(radio::Rat::kNr).rsrp_dbm;
  for (std::size_t k = 0; k < after.size(); ++k) {
    EXPECT_DOUBLE_EQ(after[k], before[k] - 30.0);
  }
}

// Randomized parity: a3_step against the stateful A3Detector.
TEST(CohortStepTest, A3StepMatchesDetector) {
  sim::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    A3Config cfg;
    cfg.hysteresis_db = rng.uniform(0.5, 5.0);
    cfg.time_to_trigger = sim::from_millis(rng.uniform(50.0, 600.0));
    A3Detector detector(cfg);
    sim::Time since = kA3NotEntering;
    sim::Time at = 0;
    for (int step = 0; step < 300; ++step) {
      at += sim::from_millis(rng.uniform(20.0, 200.0));
      const double serving = rng.uniform(-20.0, -5.0);
      const double neighbor = serving + rng.uniform(-4.0, 8.0);
      const bool fired_detector = detector.update(at, serving, neighbor);
      const bool fired_step = a3_step(cfg, since, at, serving, neighbor);
      ASSERT_EQ(fired_detector, fired_step) << "trial " << trial << " step "
                                            << step;
    }
  }
}

// Randomized parity: nsa_step against the stateful NsaUe controller. The
// add/drop thresholds are fixed, so each trial draws its own RSRP band
// around them and its own sampling cadence around the time-to-trigger.
TEST(CohortStepTest, NsaStepMatchesNsaUe) {
  sim::Rng rng(4048);
  for (int trial = 0; trial < 20; ++trial) {
    const double centre_dbm = rng.uniform(-110.0, -95.0);
    const double max_gap_ms = rng.uniform(50.0, 400.0);
    NsaUe ue;
    bool attached = false;
    sim::Time add_since = kNsaNotDwelling;
    sim::Time drop_since = kNsaNotDwelling;
    sim::Time at = 0;
    for (int step = 0; step < 300; ++step) {
      at += sim::from_millis(rng.uniform(20.0, max_gap_ms));
      const double rsrp = centre_dbm + rng.uniform(-15.0, 15.0);
      const std::optional<HandoffType> from_ue = ue.update(at, rsrp);
      const std::optional<HandoffType> from_step =
          nsa_step(attached, add_since, drop_since, at, rsrp);
      ASSERT_EQ(from_ue, from_step) << "trial " << trial << " step " << step;
      if (from_ue) {
        ue.complete(*from_ue);
        attached = *from_ue == HandoffType::k4G5G;
      }
    }
  }
}

// End-to-end cohort sanity under the simulator event loop.
TEST_F(CohortFixture, CohortSweepEventLoop) {
  UeCohort cohort = make_cohort(40, 8);
  sim::Simulator simr;
  cohort.start(&simr, 10 * sim::kSecond);
  simr.run_until(10 * sim::kSecond);

  const UeCohort::Stats& st = cohort.stats();
  EXPECT_GE(st.sweeps, 50u);  // 200 ms period over 10 s
  EXPECT_GT(st.rows_reused, 0u);
  EXPECT_GT(st.handoffs, 0u);
  for (std::size_t u = 0; u < cohort.size(); ++u) {
    EXPECT_GE(cohort.serving_cell(radio::Rat::kLte, u), 0);
    if (cohort.nr_attached(u)) {
      EXPECT_EQ(cohort.rrc_state(u), RrcState::kConnectedNr);
    } else {
      EXPECT_EQ(cohort.rrc_state(u), RrcState::kConnectedLte);
    }
  }
}

// The shared city population at 1,000 UEs with 10% walkers and 5%
// drivers: 100 walkers (1.4 m/s, 6-waypoint routes), then 50 drivers
// (11 m/s, 4 waypoints), then 850 stationary UEs, all drawn from the one
// placement stream. Pinned against that sequence written out by hand, so
// a changed count, order, speed or route length moves positions.
TEST_F(CohortFixture, PopulateCityCohortIsWalkersThenDriversThenStationary) {
  CohortConfig cfg;
  sim::Rng place = sim::Rng(42).fork("place");
  UeCohort cohort(&dep_, cfg, sim::Rng(42).fork("cohort"));
  core::populate_city_cohort(
      cohort, campus_, {.n_ue = 1000, .walk_frac = 0.10, .drive_frac = 0.05},
      place);

  sim::Rng ref_place = sim::Rng(42).fork("place");
  UeCohort ref(&dep_, cfg, sim::Rng(42).fork("cohort"));
  for (int i = 0; i < 100; ++i) {
    ref.add_route(geo::make_waypoint_route(campus_, ref_place, 6), 1.4);
  }
  for (int i = 0; i < 50; ++i) {
    ref.add_route(geo::make_waypoint_route(campus_, ref_place, 4), 11.0);
  }
  for (int i = 0; i < 850; ++i) {
    ref.add_stationary(campus_.random_point(ref_place));
  }

  ASSERT_EQ(cohort.size(), 1000u);
  EXPECT_EQ(place.next_u64(), ref_place.next_u64());
  std::vector<geo::Point> start(cohort.size());
  for (std::size_t u = 0; u < cohort.size(); ++u) start[u] = cohort.position(u);
  for (const sim::Time at : {sim::kSecond, 30 * sim::kSecond}) {
    cohort.advance_positions(at);
    ref.advance_positions(at);
    for (std::size_t u = 0; u < cohort.size(); ++u) {
      ASSERT_EQ(cohort.position(u).x, ref.position(u).x) << "ue " << u;
      ASSERT_EQ(cohort.position(u).y, ref.position(u).y) << "ue " << u;
    }
  }
  // Only the first 150 UEs move.
  for (std::size_t u = 0; u < cohort.size(); ++u) {
    const bool moved = cohort.position(u).x != start[u].x ||
                       cohort.position(u).y != start[u].y;
    EXPECT_EQ(moved, u < 150) << "ue " << u;
  }
}

// City scenario determinism: same seed, same construction, twice.
TEST(CityScenarioTest, DeterministicPerSeed) {
  const core::CityScenario a(77), b(77);
  ASSERT_EQ(a.deployment().cells(radio::Rat::kLte).size(),
            b.deployment().cells(radio::Rat::kLte).size());
  for (std::size_t i = 0; i < a.deployment().cells(radio::Rat::kLte).size();
       ++i) {
    const Cell& ca = a.deployment().cells(radio::Rat::kLte)[i];
    const Cell& cb = b.deployment().cells(radio::Rat::kLte)[i];
    EXPECT_EQ(ca.pci, cb.pci);
    EXPECT_EQ(ca.site.pos.x, cb.site.pos.x);
    EXPECT_EQ(ca.site.pos.y, cb.site.pos.y);
  }
  // 19 sites x 3 sectors on the default rings=2 grid.
  EXPECT_EQ(a.deployment().cells(radio::Rat::kNr).size(), 57u);
  EXPECT_EQ(a.deployment().site_count(radio::Rat::kNr), 19);
}

// The paper campus is exactly the generalized city builder at the legacy
// parameters — the delegation must not move any rng draw.
TEST(CityScenarioTest, PaperCampusUnchangedByGeneralization) {
  const geo::CampusMap legacy = geo::make_campus(sim::Rng(42));
  const geo::CampusMap city =
      geo::make_city_campus(sim::Rng(42), 500.0, 920.0, 0.2);
  ASSERT_EQ(legacy.buildings().size(), city.buildings().size());
  for (std::size_t i = 0; i < legacy.buildings().size(); ++i) {
    EXPECT_EQ(legacy.buildings()[i].footprint.min.x,
              city.buildings()[i].footprint.min.x);
    EXPECT_EQ(legacy.buildings()[i].footprint.max.y,
              city.buildings()[i].footprint.max.y);
  }
}

}  // namespace
}  // namespace fiveg::ran
