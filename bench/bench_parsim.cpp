// Parallel event-core benchmark guarding sim::ParSim's lock-step window
// scheduler: a 4-district partitioned city (2.5k UEs per district on the
// 19-site hex grid — the city_grid_10k population split across lanes),
// swept for 10 sample periods. The serial side runs the identical ParSim
// window schedule inline (threads = 1); the parallel side runs it across
// hardware_concurrency workers. Determinism is the contract: both sides
// print a checksum summed in district-index order over every final
// (ue, cell) rsrp/sinr value plus the cohort stat totals, and the two
// checksums must be bit-identical — the thread count may only change
// wall-clock, never one bit of simulation state.
//
// Prints one JSON document on stdout:
//   {"reps": ..., "districts": ..., "ues": ..., "sweeps_per_rep": ...,
//    "hardware_concurrency": ..., "parallel_threads": ...,
//    "serial_events_per_s_median": ..., "parallel_events_per_s_median":
//    ..., "speedup_median": ..., "serial_checksum": ...,
//    "parallel_checksum": ...}
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/scenario.h"
#include "sim/parsim.h"

namespace {

using namespace fiveg;  // NOLINT: benchmark file brevity
using bench::Clock;

constexpr int kReps = 5;
constexpr int kDistricts = 4;
constexpr int kUesPerDistrict = 2500;
constexpr sim::Time kDuration = 2 * sim::kSecond;  // 10 sweeps at 200 ms

struct RepResult {
  double events_per_s = 0;
  double checksum = 0;
};

// One full partitioned-city run at the given worker count. Construction
// is outside the timed region; the measured rate is the event core alone.
RepResult run_rep(int threads) {
  core::PartitionedCityConfig part;
  part.districts = kDistricts;

  sim::ParSimConfig cfg;
  cfg.lanes = part.districts;
  cfg.threads = threads;
  cfg.lookahead = core::city_partition_lookahead(part);
  sim::ParSim par(cfg);
  core::CityPopulation pop;
  pop.n_ue = kUesPerDistrict;
  pop.walk_frac = 0.035;
  pop.drive_frac = 0.015;
  const std::vector<core::CityDistrict> districts =
      core::build_city_districts(par, 42, part, "bench", pop, kDuration);

  const auto start = Clock::now();
  par.run_until(kDuration);
  const double secs = bench::seconds_since(start);
  par.finish();

  double checksum = 0;
  for (const core::CityDistrict& d : districts) {
    const ran::UeCohort& cohort = *d.cohort;
    const ran::UeCohort::Stats& st = cohort.stats();
    checksum += static_cast<double>(st.sweeps) +
                static_cast<double>(st.handoffs) * 1e3 +
                static_cast<double>(st.a3_triggers) * 1e6;
    for (const radio::Rat rat : {radio::Rat::kLte, radio::Rat::kNr}) {
      const auto& block = cohort.block(rat);
      const std::size_t n =
          d.scenario->deployment().cells(rat).size() * cohort.size();
      for (std::size_t i = 0; i < n; ++i) {
        checksum += block.rsrp_dbm[i] + block.sinr_db[i];
      }
    }
  }
  return {static_cast<double>(par.executed_events()) / secs, checksum};
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  // One worker per lane, regardless of the host (mirroring an explicit
  // --sim-threads value): on a small host this honestly measures the
  // pool + barrier overhead instead of silently falling back to the
  // inline schedule. hardware_concurrency is reported alongside so the
  // recorded speedup can be read in context.
  const int par_threads = kDistricts;

  std::vector<double> serial_rate, parallel_rate, speedup;
  double serial_sum = 0, parallel_sum = 0;
  for (int r = 0; r < kReps; ++r) {
    const RepResult s = run_rep(1);
    serial_rate.push_back(s.events_per_s);
    serial_sum = s.checksum;  // identical every rep: pure functions
    const RepResult p = run_rep(par_threads);
    parallel_rate.push_back(p.events_per_s);
    parallel_sum = p.checksum;
    speedup.push_back(p.events_per_s / s.events_per_s);
  }

  std::printf(
      "{\"reps\": %d, \"districts\": %d, \"ues\": %d, "
      "\"sweeps_per_rep\": %d, \"hardware_concurrency\": %u, "
      "\"parallel_threads\": %d, "
      "\"serial_events_per_s_median\": %.0f, "
      "\"parallel_events_per_s_median\": %.0f, "
      "\"speedup_median\": %.2f, "
      "\"serial_checksum\": %.6f, \"parallel_checksum\": %.6f}\n",
      kReps, kDistricts, kDistricts * kUesPerDistrict,
      static_cast<int>(kDuration / sim::from_millis(200)), hw, par_threads,
      bench::median(serial_rate), bench::median(parallel_rate),
      bench::median(speedup), serial_sum, parallel_sum);
  return serial_sum == parallel_sum ? 0 : 1;
}
