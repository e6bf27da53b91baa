// City-scale experiments: the paper's campus findings extrapolated to a
// dense hex-grid NSA deployment with thousands of UEs. All per-UE state
// lives in one ran::UeCohort (structure-of-arrays), advanced by a single
// batched sweep event per sample period; KPIs aggregate into cohort-level
// digests and the summary tables below — never per-UE series.
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/scenario.h"
#include "measure/table.h"
#include "ran/ue_cohort.h"
#include "sim/parsim.h"

namespace fiveg::core {
namespace {

using measure::TextTable;

// Sums cohort KPIs over cohorts in the order they are added (district
// index order for the partitioned city, the canonical merge) and emits
// the table rows and metrics both city runs share.
class CityKpis {
 public:
  void add(const ran::UeCohort& cohort, const ran::Deployment& dep) {
    const ran::UeCohort::Stats& st = cohort.stats();
    sum_.sweeps += st.sweeps;
    sum_.rows_computed += st.rows_computed;
    sum_.rows_reused += st.rows_reused;
    sum_.a3_triggers += st.a3_triggers;
    sum_.handoffs += st.handoffs;
    sum_.vertical_handoffs += st.vertical_handoffs;
    ues_ += cohort.size();
    // Final-sweep serving KPIs.
    const std::size_t n_lte = dep.cells(radio::Rat::kLte).size();
    const std::size_t n_nr = dep.cells(radio::Rat::kNr).size();
    const auto& lte = cohort.block(radio::Rat::kLte);
    const auto& nr = cohort.block(radio::Rat::kNr);
    for (std::size_t u = 0; u < cohort.size(); ++u) {
      if (const int s = cohort.serving_cell(radio::Rat::kLte, u); s >= 0) {
        lte_rsrp_sum_ += lte.rsrp_dbm[u * n_lte + static_cast<std::size_t>(s)];
        ++lte_attached_;
      }
      if (const int s = cohort.serving_cell(radio::Rat::kNr, u); s >= 0) {
        nr_rsrp_sum_ += nr.rsrp_dbm[u * n_nr + static_cast<std::size_t>(s)];
        nr_sinr_sum_ += nr.sinr_db[u * n_nr + static_cast<std::size_t>(s)];
        ++nr_attached_;
      }
    }
  }

  /// Appends the shared rows to `t` (after the caller's own header rows),
  /// prints it, then records the shared metrics (after the caller's own).
  void emit(const ExperimentContext& ctx, TextTable& t) const {
    const double nr_frac =
        ues_ > 0 ? static_cast<double>(nr_attached_) / static_cast<double>(ues_)
                 : 0.0;
    const double reuse_frac =
        sum_.rows_computed + sum_.rows_reused > 0
            ? static_cast<double>(sum_.rows_reused) /
                  static_cast<double>(sum_.rows_computed + sum_.rows_reused)
            : 0.0;

    t.add_row({"UEs", std::to_string(ues_)});
    t.add_row({"sweeps", std::to_string(sum_.sweeps)});
    t.add_row({"rows computed", std::to_string(sum_.rows_computed)});
    t.add_row({"rows reused", std::to_string(sum_.rows_reused)});
    t.add_row({"row reuse", TextTable::pct(reuse_frac)});
    t.add_row({"A3 triggers", std::to_string(sum_.a3_triggers)});
    t.add_row({"hand-offs", std::to_string(sum_.handoffs)});
    t.add_row({"vertical hand-offs", std::to_string(sum_.vertical_handoffs)});
    t.add_row({"NR attached", TextTable::pct(nr_frac)});
    if (nr_attached_ > 0) {
      t.add_row({"serving NR RSRP mean (dBm)",
                 TextTable::num(nr_rsrp_sum_ / nr_attached_, 1)});
      t.add_row({"serving NR SINR mean (dB)",
                 TextTable::num(nr_sinr_sum_ / nr_attached_, 1)});
    }
    if (lte_attached_ > 0) {
      t.add_row({"serving LTE RSRP mean (dBm)",
                 TextTable::num(lte_rsrp_sum_ / lte_attached_, 1)});
    }
    t.print(*ctx.out);

    ctx.metric("ue_count", static_cast<double>(ues_), "count");
    ctx.metric("sweeps", static_cast<double>(sum_.sweeps), "count");
    ctx.metric("row_reuse_frac", reuse_frac, "fraction");
    ctx.metric("a3_triggers", static_cast<double>(sum_.a3_triggers), "count");
    ctx.metric("handoffs_total", static_cast<double>(sum_.handoffs), "count");
    ctx.metric("vertical_handoffs",
               static_cast<double>(sum_.vertical_handoffs), "count");
    ctx.metric("nr_attached_frac", nr_frac, "fraction");
    if (nr_attached_ > 0) {
      ctx.metric("serving_nr_rsrp_mean_dbm", nr_rsrp_sum_ / nr_attached_,
                 "dBm");
      ctx.metric("serving_nr_sinr_mean_db", nr_sinr_sum_ / nr_attached_, "dB");
    }
    if (lte_attached_ > 0) {
      ctx.metric("serving_lte_rsrp_mean_dbm", lte_rsrp_sum_ / lte_attached_,
                 "dBm");
    }
  }

 private:
  ran::UeCohort::Stats sum_;
  double nr_rsrp_sum_ = 0, nr_sinr_sum_ = 0, lte_rsrp_sum_ = 0;
  std::size_t nr_attached_ = 0, lte_attached_ = 0, ues_ = 0;
};

struct CityRunSpec {
  std::string cohort_name;
  CityConfig city;
  CityPopulation ues;
  sim::Time duration = 60 * sim::kSecond;
};

// Builds the city, populates one cohort, runs it to `duration` and
// prints/records the aggregate KPIs.
void run_city(const ExperimentContext& ctx, const CityRunSpec& spec) {
  const CityScenario sc(ctx.seed, spec.city);
  const ran::Deployment& dep = sc.deployment();
  sim::Simulator simr;

  ran::CohortConfig ccfg;
  ccfg.name = spec.cohort_name;
  ran::UeCohort cohort(&dep, ccfg, sim::Rng(ctx.seed).fork("cohort"));
  sim::Rng place = sim::Rng(ctx.seed).fork("city_ues");
  populate_city_cohort(cohort, sc.campus(), spec.ues, place);

  cohort.start(&simr, spec.duration);
  simr.run_until(spec.duration);

  CityKpis kpis;
  kpis.add(cohort, dep);
  TextTable t("City cohort \"" + spec.cohort_name + "\" — aggregate KPIs",
              {"metric", "value"});
  t.add_row({"sites", std::to_string(dep.site_count(radio::Rat::kLte))});
  t.add_row({"cells (LTE + NR)",
             std::to_string(dep.cells(radio::Rat::kLte).size()) + " + " +
                 std::to_string(dep.cells(radio::Rat::kNr).size())});
  kpis.emit(ctx, t);
}

struct CityParSpec {
  std::string prefix;
  PartitionedCityConfig part;
  CityPopulation ues;  // per district
  sim::Time duration = 60 * sim::kSecond;
};

// The partitioned city: one radio-isolated district per ParSim lane, each
// with its own hex grid, campus and domain-pinned cohort, swept in
// parallel lock-step windows. Every per-district stream is a named fork
// of the experiment seed and all KPI aggregation walks districts in index
// order, so stdout/KPIs/traces are byte-identical for any --sim-threads.
void run_city_partitioned(const ExperimentContext& ctx,
                          const CityParSpec& spec) {
  sim::ParSimConfig pcfg;
  pcfg.lanes = spec.part.districts;
  pcfg.threads = ctx.sim_threads;
  pcfg.lookahead = city_partition_lookahead(spec.part);
  sim::ParSim par(pcfg);
  const std::vector<CityDistrict> districts = build_city_districts(
      par, ctx.seed, spec.part, spec.prefix, spec.ues, spec.duration);

  par.run_until(spec.duration);
  par.finish();

  CityKpis kpis;
  for (const CityDistrict& d : districts) {
    kpis.add(*d.cohort, d.scenario->deployment());
  }
  const ran::Deployment& dep0 = districts.front().scenario->deployment();

  // Note: nothing below may depend on the thread count — stdout is part
  // of the determinism contract. windows() and the lookahead are pure
  // functions of the event structure; effective_threads() is not printed.
  TextTable t("Partitioned city \"" + spec.prefix + "\" — aggregate KPIs",
              {"metric", "value"});
  t.add_row({"districts (ParSim lanes)",
             std::to_string(spec.part.districts)});
  t.add_row({"sites per district",
             std::to_string(dep0.site_count(radio::Rat::kLte))});
  t.add_row({"lookahead (us)",
             std::to_string(par.lookahead() / sim::kMicrosecond)});
  t.add_row({"lock-step windows", std::to_string(par.windows())});
  ctx.metric("districts", static_cast<double>(spec.part.districts), "count");
  ctx.metric("parsim_windows", static_cast<double>(par.windows()), "count");
  kpis.emit(ctx, t);
}

void run_city_grid_smoke(const ExperimentContext& ctx) {
  CityRunSpec spec;
  spec.cohort_name = "city_smoke";
  spec.city.width_m = 640.0;
  spec.city.height_m = 640.0;
  spec.city.grid.rings = 1;  // 7 sites
  spec.ues.n_ue = 160;
  spec.duration = 20 * sim::kSecond;
  run_city(ctx, spec);
}

void run_city_grid_1k(const ExperimentContext& ctx) {
  CityRunSpec spec;
  spec.cohort_name = "city_1k";
  spec.ues.n_ue = 1000;
  run_city(ctx, spec);
}

void run_city_grid_10k(const ExperimentContext& ctx) {
  CityRunSpec spec;
  spec.cohort_name = "city_10k";
  spec.ues.n_ue = 10000;
  spec.ues.walk_frac = 0.035;
  spec.ues.drive_frac = 0.015;
  run_city(ctx, spec);
}

void run_city_par_smoke(const ExperimentContext& ctx) {
  CityParSpec spec;
  spec.prefix = "city_par";
  spec.part.districts = 4;
  spec.part.district.width_m = 640.0;
  spec.part.district.height_m = 640.0;
  spec.part.district.grid.rings = 1;  // 7 sites per district
  spec.ues.n_ue = 40;
  spec.duration = 20 * sim::kSecond;
  run_city_partitioned(ctx, spec);
}

void run_city_par_100k(const ExperimentContext& ctx) {
  CityParSpec spec;
  spec.prefix = "city_100k";
  spec.part.districts = 8;
  spec.ues.n_ue = 12500;
  spec.ues.walk_frac = 0.035;
  spec.ues.drive_frac = 0.015;
  run_city_partitioned(ctx, spec);
}

}  // namespace

void register_city_experiments(ExperimentRegistry& reg) {
  reg.add({"city_grid_smoke", "Extension (Sec. 3 coverage, densified grid)",
           "Small hex-grid city cohort (7 sites, ~160 UEs) exercising the "
           "batched SoA UE core end to end",
           /*smoke=*/true,
           run_city_grid_smoke});
  reg.add({"city_grid_1k", "Extension (Sec. 3 coverage, densified grid)",
           "1k-UE city: 19-site hex grid, 10% walkers + 5% drivers, "
           "cohort-sweep digest KPIs",
           /*smoke=*/false,
           run_city_grid_1k});
  reg.add({"city_grid_10k", "Extension (Sec. 3 coverage, densified grid)",
           "10k-UE city on the 19-site hex grid: the SoA cohort's row cache "
           "keeps the stationary majority amortised",
           /*smoke=*/false,
           run_city_grid_10k});
  reg.add({"city_par_smoke", "Extension (Sec. 3 coverage, partitioned metro)",
           "4-district partitioned city (~160 UEs) on the parallel lock-step "
           "core; byte-identical for any --sim-threads",
           /*smoke=*/true,
           run_city_par_smoke});
  reg.add({"city_par_100k", "Extension (Sec. 3 coverage, partitioned metro)",
           "100k-UE metro: 8 radio-isolated districts x 12.5k UEs on 19-site "
           "grids, swept by the parallel lock-step core",
           /*smoke=*/false,
           run_city_par_100k});
}

}  // namespace fiveg::core
