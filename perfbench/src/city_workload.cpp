// city_cohort: a scaled-down city_par_100k. Radio-isolated districts, each
// a core::CityScenario hex grid with one ran::UeCohort, advance in
// sim::ParSim lock-step windows. The benchmark drives each district's sweep
// itself so it can time the public calls a sweep is made of:
// UeCohort::advance_positions (geo), measure_batch for both RATs (radio),
// then UeCohort::sweep, whose own advance/measure pass finds every row
// cached (one sort and one key compare per UE and RAT) before it runs the
// trigger phase (ran).
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "iterate.h"
#include "geo/route.h"
#include "ran/ue_cohort.h"
#include "sim/parsim.h"
#include "sim/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = fiveg::core;
namespace ran = fiveg::ran;
namespace sim = fiveg::sim;
using fiveg::radio::Rat;

struct CityInputs {
  int districts = 0;
  int threads = 0;  // ParSim lane workers
  int rings = 0;    // hex rings per district grid
  int ue_per_district = 0;
  std::int64_t duration_ms = 0;
  std::int64_t sweep_period_ms = 0;
  std::vector<std::uint64_t> city_seed, cohort_seed, place_seed;
  std::vector<int> walkers, drivers;  // per district; the rest stand still
};

CityInputs generate_city(std::uint64_t seed) {
  InputRng rng(seed);
  CityInputs in;
  in.districts = 4;
  // Two lane workers for four lanes: with a worker per core, any other
  // load on the host stalls every lock-step window behind the slowed core.
  in.threads = 2;
  in.rings = 2;
  in.ue_per_district = 2000;
  in.duration_ms = 2000;
  in.sweep_period_ms = 200;
  // Mover fractions from mostly-stationary (rows reused) to mostly-moving
  // (rows recomputed), so both regimes always occur. They stay with the
  // district index, which fixes each lane worker's load (ParSim deals
  // lanes k, k + threads, ... to worker k); the seed draws how each
  // district's movers split into walkers and drivers.
  const std::vector<double> mover_frac = {0.40, 0.20, 0.02, 0.08};
  // The district maps stay the same for every seed (map generation cost
  // varies by up to 2x between maps, which would swamp set-up time); the
  // seed moves the population on them.
  InputRng maps(0xc17c0de);
  for (int k = 0; k < in.districts; ++k) {
    in.city_seed.push_back(maps.next());
    in.cohort_seed.push_back(rng.next());
    in.place_seed.push_back(rng.next());
    const int movers = static_cast<int>(in.ue_per_district *
                                        mover_frac[static_cast<std::size_t>(k)]);
    const int walkers = static_cast<int>(movers * rng.uniform(0.4, 0.6));
    in.walkers.push_back(walkers);
    in.drivers.push_back(movers - walkers);
  }
  return in;
}

// Per-district benchmark state. The timers are written only by the thread
// running this district's lane window and read after ParSim::run_until
// returns, so they need no synchronisation.
struct District {
  std::unique_ptr<core::CityScenario> sc;
  std::unique_ptr<ran::UeCohort> cohort;
  double advance_s = 0, measure_s = 0, trigger_s = 0;
  std::uint64_t rows_computed = 0, rows_reused = 0;  // explicit measure calls
};

struct City {
  std::unique_ptr<sim::ParSim> par;
  std::vector<District> districts;
  sim::Time duration = 0;
  sim::Time period = 0;
  double run_s = 0;
  std::uint64_t expected_sweeps = 0;
};

void tick(City& c, int k) {
  District& d = c.districts[static_cast<std::size_t>(k)];
  ran::UeCohort& cohort = *d.cohort;
  sim::Simulator& lane = c.par->lane(k);
  const sim::Time now = lane.now();
  const auto t0 = Clock::now();
  cohort.advance_positions(now);
  const auto t1 = Clock::now();
  const ran::UeCohort::Stats before = cohort.stats();
  cohort.measure_batch(Rat::kLte);
  cohort.measure_batch(Rat::kNr);
  const ran::UeCohort::Stats& after = cohort.stats();
  d.rows_computed += after.rows_computed - before.rows_computed;
  d.rows_reused += after.rows_reused - before.rows_reused;
  const auto t2 = Clock::now();
  cohort.sweep(now);
  const auto t3 = Clock::now();
  d.advance_s += std::chrono::duration<double>(t1 - t0).count();
  d.measure_s += std::chrono::duration<double>(t2 - t1).count();
  d.trigger_s += std::chrono::duration<double>(t3 - t2).count();
  if (now + c.period <= c.duration) {
    lane.schedule_in(c.period, "ran.cohort_sweep", [&c, k] { tick(c, k); });
  }
}

std::unique_ptr<City> build_city(const CityInputs& in) {
  auto c = std::make_unique<City>();
  c->duration = in.duration_ms * sim::kMillisecond;
  c->period = in.sweep_period_ms * sim::kMillisecond;
  c->expected_sweeps =
      static_cast<std::uint64_t>(in.duration_ms / in.sweep_period_ms) + 1;

  core::PartitionedCityConfig part;
  part.districts = in.districts;
  part.district.grid.rings = in.rings;
  sim::ParSimConfig pcfg;
  pcfg.lanes = in.districts;
  pcfg.threads = in.threads;
  pcfg.lookahead = core::city_partition_lookahead(part);
  c->par = std::make_unique<sim::ParSim>(pcfg);
  c->districts.resize(static_cast<std::size_t>(in.districts));
  for (int k = 0; k < in.districts; ++k) {
    // Built under the lane's scope, so cached metric handles are lane-local.
    c->par->with_lane(k, [&, k] {
      const auto i = static_cast<std::size_t>(k);
      District& d = c->districts[i];
      d.sc = std::make_unique<core::CityScenario>(in.city_seed[i],
                                                  part.district);
      ran::CohortConfig ccfg;
      ccfg.name = "perfbench.d" + std::to_string(k);
      ccfg.sample_period = c->period;
      ccfg.domain = k;
      d.cohort = std::make_unique<ran::UeCohort>(
          &d.sc->deployment(), ccfg, sim::Rng(in.cohort_seed[i]));
      sim::Rng place(in.place_seed[i]);
      // Waypoint walkers (1.4 m/s) and drivers (11 m/s), as in the city
      // experiments.
      for (int u = 0; u < in.walkers[i]; ++u) {
        d.cohort->add_route(
            fiveg::geo::make_waypoint_route(d.sc->campus(), place, 6), 1.4);
      }
      for (int u = 0; u < in.drivers[i]; ++u) {
        d.cohort->add_route(
            fiveg::geo::make_waypoint_route(d.sc->campus(), place, 4), 11.0);
      }
      for (int u = in.walkers[i] + in.drivers[i]; u < in.ue_per_district;
           ++u) {
        d.cohort->add_stationary(d.sc->campus().random_point(place));
      }
      City* city = c.get();
      c->par->lane(k).schedule_in(0, "ran.cohort_sweep",
                                  [city, k] { tick(*city, k); });
    });
  }
  return c;
}

}  // namespace

Outcome run_city_cohort(const Options& opt) {
  const CityInputs in = generate_city(opt.seed);
  Outcome out;
  out.threads = in.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0 && static_cast<unsigned>(in.threads) > hw) {
    throw std::runtime_error("city_cohort wants " +
                             std::to_string(in.threads) +
                             " threads but hardware_concurrency is " +
                             std::to_string(hw));
  }
  out.inputs = {{"districts", std::to_string(in.districts)},
                {"threads", std::to_string(in.threads)},
                {"rings", std::to_string(in.rings)},
                {"ue_per_district", std::to_string(in.ue_per_district)},
                {"sim_duration_ms", std::to_string(in.duration_ms)},
                {"sweep_period_ms", std::to_string(in.sweep_period_ms)}};
  for (std::size_t i = 0; i < in.city_seed.size(); ++i) {
    const std::string d = "district" + std::to_string(i);
    out.inputs.emplace_back(d + ".city_seed", std::to_string(in.city_seed[i]));
    out.inputs.emplace_back(d + ".cohort_seed",
                            std::to_string(in.cohort_seed[i]));
    out.inputs.emplace_back(d + ".place_seed",
                            std::to_string(in.place_seed[i]));
    out.inputs.emplace_back(d + ".walkers", std::to_string(in.walkers[i]));
    out.inputs.emplace_back(d + ".drivers", std::to_string(in.drivers[i]));
    out.inputs.emplace_back(
        d + ".mover_frac",
        format_double(static_cast<double>(in.walkers[i] + in.drivers[i]) /
                      in.ue_per_district));
  }
  out.unit_name = "ue_samples";

  Plan<City> plan;
  plan.setup_reps = 3;
  plan.rotate_cpus = false;  // ParSim workers must keep every CPU
  plan.build = [&in](bool) { return build_city(in); };
  plan.run = [](City& c, Laps& laps) {
    const auto start = Clock::now();
    for (sim::Time t = 0; t < c.duration;) {  // one lap per sweep period
      t = std::min(t + c.period, c.duration);
      c.par->run_until(t);
      laps.lap();
    }
    c.run_s = seconds_since(start);
    c.par->finish();
  };
  plan.verify = [&opt](City& c, Checks& checks, Checksum& sum) {
    for (std::size_t k = 0; k < c.districts.size(); ++k) {
      const District& d = c.districts[k];
      const ran::UeCohort& cohort = *d.cohort;
      const ran::UeCohort::Stats& st = cohort.stats();
      const std::uint64_t n = cohort.size();
      const std::string name = "district " + std::to_string(k);
      const std::uint64_t sweeps =
          st.sweeps + (opt.sabotage == Sabotage::kInvariant ? 1 : 0);
      checks.require(sweeps == c.expected_sweeps,
                     name + ": " + std::to_string(sweeps) + " sweeps, want " +
                         std::to_string(c.expected_sweeps));
      // Four measure_batch passes per sweep (two RATs, explicit + inside
      // sweep()), each touching every UE's row exactly once.
      checks.require(st.rows_computed + st.rows_reused == 4 * n * st.sweeps,
                     name + ": row accounting does not cover every UE");
      checks.require(d.rows_computed + d.rows_reused == 2 * n * st.sweeps,
                     name + ": explicit measure rows miscounted");
      std::uint64_t lte_attached = 0;
      for (std::size_t u = 0; u < n; ++u) {
        lte_attached += cohort.serving_cell(Rat::kLte, u) >= 0 ? 1 : 0;
        sum.add(static_cast<std::uint64_t>(
            cohort.serving_cell(Rat::kLte, u) + 1));
        sum.add(static_cast<std::uint64_t>(
            cohort.serving_cell(Rat::kNr, u) + 1));
      }
      checks.require(lte_attached > 0, name + ": no UE attached to LTE");
      for (const Rat rat : {Rat::kLte, Rat::kNr}) {
        const ran::UeCohort::MeasBlock& b = cohort.block(rat);
        for (const double v : b.rsrp_dbm) sum.add(v);
        for (const double v : b.sinr_db) sum.add(v);
      }
      sum.add(st.sweeps);
      sum.add(st.rows_computed);
      sum.add(st.rows_reused);
      sum.add(st.handoffs);
      sum.add(st.a3_triggers);
      sum.add(st.vertical_handoffs);
    }
  };
  plan.units = [](const City& c) {
    double samples = 0;
    for (const District& d : c.districts) {
      samples += static_cast<double>(d.cohort->size() *
                                     d.cohort->stats().sweeps);
    }
    return samples;
  };
  plan.layers = [](City& c, LayerTable& t) {
    double computed = 0, reused = 0;
    for (const District& d : c.districts) {
      t.add("geo.advance_ms", d.advance_s * 1e3);
      t.add("radio.measure_ms", d.measure_s * 1e3);
      t.add("ran.trigger_ms", d.trigger_s * 1e3);
      t.add("ran.handoffs", static_cast<double>(d.cohort->stats().handoffs));
      computed += static_cast<double>(d.rows_computed);
      reused += static_cast<double>(d.rows_reused);
    }
    t.set("ran.row_reuse_ratio",
          computed + reused > 0 ? reused / (computed + reused) : 0.0);
    const auto windows = static_cast<double>(c.par->windows());
    t.set("sim.parsim.windows", windows);
    t.set("sim.parsim.window_mean_us",
          windows > 0 ? c.run_s * 1e6 / windows : 0.0);
  };
  drive(opt, plan, out);
  return out;
}

}  // namespace perfbench
