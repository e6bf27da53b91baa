// City-scale UE-core benchmark guarding the SoA cohort's batched
// measurement path: a 1k-UE mixed cohort (85% stationary, 10% walkers,
// 5% drivers) on the 19-site hex grid, swept for several sample periods.
// The scalar baseline advances the same positions and calls the per-UE
// measure_cells() loop, one RAT at a time; the batch path runs
// UeCohort::measure_batch with its exact row cache, which fills a stale
// UE's LTE and NR rows in one Deployment::measure_rows() pass. Both run
// the same row kernel (ran::measure_row).
//
// Both paths print a checksum summed in UE-index order over every
// (ue, cell) rsrp/sinr value. The batch path is exact (cached rows are pure
// functions of their keys), so the two checksums must be bit-identical —
// any divergence means the fast path changed physics.
//
// Prints one JSON document on stdout:
//   {"reps": ..., "ues": ..., "cells_per_rat": ..., "sweeps_per_rep": ...,
//    "scalar_evals_per_s_median": ..., "batch_evals_per_s_median": ...,
//    "speedup_median": ..., "scalar_checksum": ..., "batch_checksum": ...}
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/scenario.h"
#include "ran/cell.h"
#include "ran/deployment.h"
#include "ran/ue_cohort.h"
#include "sim/rng.h"

namespace {

using namespace fiveg;  // NOLINT: benchmark file brevity
using bench::Clock;

constexpr int kReps = 5;
constexpr int kUes = 1000;
constexpr int kSweeps = 10;
constexpr sim::Time kPeriod = sim::from_millis(200);

struct RepResult {
  double evals_per_s = 0;
  double checksum = 0;
};

// Scalar baseline: the pre-cohort per-UE loop (scratch overload, so the
// comparison is measurement structure, not allocator churn).
RepResult scalar_rep(ran::UeCohort& cohort, const ran::Deployment& dep) {
  std::vector<ran::CellMeasurement> scratch;
  std::uint64_t evals = 0;
  double checksum = 0;
  const auto start = Clock::now();
  for (int s = 0; s < kSweeps; ++s) {
    cohort.advance_positions(s * kPeriod);
    for (const radio::Rat rat : {radio::Rat::kLte, radio::Rat::kNr}) {
      for (std::size_t u = 0; u < cohort.size(); ++u) {
        measure_cells(dep.env(), dep.carrier(rat), dep.cells(rat),
                      cohort.position(u), scratch);
        evals += scratch.size();
        for (const ran::CellMeasurement& m : scratch) {
          checksum += m.rsrp_dbm + m.sinr_db;
        }
      }
    }
  }
  const double secs = bench::seconds_since(start);
  return {static_cast<double>(evals) / secs, checksum};
}

// Batch path: the cohort sweep's measurement half. `evals` counts the
// same requested (ue, cell) values as the scalar loop — reused rows are
// answered, not skipped — so the two rates compare sweep throughput.
RepResult batch_rep(ran::UeCohort& cohort) {
  std::uint64_t evals = 0;
  double checksum = 0;
  const auto start = Clock::now();
  for (int s = 0; s < kSweeps; ++s) {
    cohort.advance_positions(s * kPeriod);
    for (const radio::Rat rat : {radio::Rat::kLte, radio::Rat::kNr}) {
      const ran::UeCohort::MeasBlock& block = cohort.measure_batch(rat);
      const std::size_t n = block.n_cells;
      evals += cohort.size() * n;
      for (std::size_t u = 0; u < cohort.size(); ++u) {
        for (std::size_t i = 0; i < n; ++i) {
          checksum += block.rsrp_dbm[u * n + i] + block.sinr_db[u * n + i];
        }
      }
    }
  }
  const double secs = bench::seconds_since(start);
  return {static_cast<double>(evals) / secs, checksum};
}

}  // namespace

int main() {
  // The city_grid_1k set-up (default city, same forks and UE mix) at seed 42.
  const core::CityScenario sc(42);
  const ran::Deployment& dep = sc.deployment();

  ran::CohortConfig cfg;
  cfg.name = "bench";
  ran::UeCohort cohort(&dep, cfg, sim::Rng(42).fork("cohort"));
  sim::Rng place = sim::Rng(42).fork("city_ues");
  core::CityPopulation pop;
  pop.n_ue = kUes;
  core::populate_city_cohort(cohort, sc.campus(), pop, place);

  std::vector<double> scalar_rate, batch_rate, speedup;
  double scalar_sum = 0, batch_sum = 0;
  for (int r = 0; r < kReps; ++r) {
    const RepResult s = scalar_rep(cohort, dep);
    scalar_rate.push_back(s.evals_per_s);
    scalar_sum = s.checksum;  // identical every rep: pure functions
    const RepResult b = batch_rep(cohort);
    batch_rate.push_back(b.evals_per_s);
    batch_sum = b.checksum;
    speedup.push_back(b.evals_per_s / s.evals_per_s);
  }

  const std::size_t cells = dep.cells(radio::Rat::kNr).size();
  std::printf(
      "{\"reps\": %d, \"ues\": %d, \"cells_per_rat\": %zu, "
      "\"sweeps_per_rep\": %d, \"scalar_evals_per_s_median\": %.0f, "
      "\"batch_evals_per_s_median\": %.0f, \"speedup_median\": %.2f, "
      "\"scalar_checksum\": %.6f, \"batch_checksum\": %.6f}\n",
      kReps, kUes, cells, kSweeps, bench::median(scalar_rate),
      bench::median(batch_rate), bench::median(speedup), scalar_sum, batch_sum);
  return 0;
}
