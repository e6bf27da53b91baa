// Hot-path microbenchmarks guarding the three paths every figure sweep
// leans on: campus geometry queries (LoS / indoor / O2I),
// full-interference SINR sweeps over the deployment, and event-queue churn
// with cancellations. Medians are committed as BENCH_hotpath.json.
//
// Every radio/geometry benchmark also prints a checksum over the computed
// values: the optimizations are exact (spatial indexing and co-site
// sharing, no fast-math), so the checksums must be bit-identical across
// any rewrite — a cheap exactness probe on top of the golden-based drift
// detector.
//
// Prints one JSON document on stdout:
//   {"reps": ..., "geometry_qps_median": ..., "geometry_checksum": ...,
//    "sinr_sweep_qps_median": ..., "sinr_checksum": ...,
//    "event_churn_eps_median": ...}
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <vector>

#include "bench_common.h"
#include "geo/campus.h"
#include "geo/geometry.h"
#include "ran/cell.h"
#include "ran/deployment.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace {

using namespace fiveg;  // NOLINT: benchmark file brevity
using bench::Clock;

struct GeoResult {
  double qps = 0;
  double checksum = 0;
};

// One rep: a geometry workload shaped like the product's coverage sweep.
// One coverage-grid worth of UE points (the Fig.2 sweep is 50x46 = 2300);
// per point the sweep asks indoor/O2I (both carrier bands, like the
// LTE-1.8 + NR-3.5 link budgets) and LoS toward every *sector*. Sectors
// are co-sited three to a mast, exactly as in the deployment (34 LTE
// sectors on 13 masts), so most LoS queries repeat a mast->UE segment the
// sweep just answered. Eight passes over the same points give the rep
// enough work to time; no experiment repeats a grid like this.
GeoResult geometry_rep(const geo::CampusMap& campus) {
  sim::Rng rng(1234);
  std::vector<geo::Point> masts;
  for (int i = 0; i < 8; ++i) masts.push_back(campus.random_point(rng));
  std::vector<geo::Point> sectors;  // 3 co-sited sectors per mast
  for (const geo::Point& m : masts) {
    for (int s = 0; s < 3; ++s) sectors.push_back(m);
  }
  std::vector<geo::Point> points;
  points.reserve(2300);
  for (int i = 0; i < 2300; ++i) points.push_back(campus.random_point(rng));

  std::uint64_t queries = 0;
  double checksum = 0;
  const auto start = Clock::now();
  for (int pass = 0; pass < 8; ++pass) {
    for (const geo::Point& p : points) {
      checksum += campus.is_indoor(p) ? 1.0 : 0.0;
      checksum += campus.o2i_loss_db(p, 1.8);
      checksum += campus.o2i_loss_db(p, 3.5);
      queries += 3;
      for (const geo::Point& o : sectors) {
        checksum += campus.has_los({o, p}) ? 1.0 : 0.0;
        ++queries;
      }
    }
  }
  const double secs = bench::seconds_since(start);
  return {static_cast<double>(queries) / secs, checksum};
}

// One rep: the Fig.2-style grid sweep, both RATs, revisiting the same grid
// twice (coverage experiments evaluate several KPIs per location).
GeoResult sinr_rep(const geo::CampusMap& campus, const ran::Deployment& dep) {
  const geo::Rect& b = campus.bounds();
  const int cols = 50, rows = 46;
  std::uint64_t cell_evals = 0;
  double checksum = 0;
  const auto start = Clock::now();
  for (int pass = 0; pass < 2; ++pass) {
    for (const radio::Rat rat : {radio::Rat::kLte, radio::Rat::kNr}) {
      const auto& cells = dep.cells(rat);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          const geo::Point p{b.min.x + (c + 0.5) * b.width() / cols,
                             b.min.y + (r + 0.5) * b.height() / rows};
          const auto ms =
              ran::measure_cells(dep.env(), dep.carrier(rat), cells, p);
          cell_evals += ms.size();
          checksum += ms.front().sinr_db + ms.back().rsrp_dbm;
        }
      }
    }
  }
  const double secs = bench::seconds_since(start);
  return {static_cast<double>(cell_evals) / secs, checksum};
}

// One rep: protocol-timer churn — every fired event schedules a successor
// and two guard timers; one guard is cancelled while pending (the usual
// timer race) and one after it already fired (the DRX/HARQ/RTO pattern that
// leaked per-id state in the lazy-cancellation design).
double event_churn_rep(std::uint64_t target_events) {
  sim::EventQueue q;
  sim::Time t = 0;
  std::uint64_t fired = 0;
  sim::EventId last_fired = 0;
  std::function<void()> tick = [&] { ++fired; };
  sim::EventQueue::Popped e;
  const auto pop_and_run = [&] {
    q.pop_due(std::numeric_limits<sim::Time>::max(), e);
    e.action();
    e.action.reset();
  };
  for (int i = 0; i < 512; ++i) q.schedule(++t, tick);
  const auto start = Clock::now();
  while (fired < target_events) {
    const sim::EventId pending = q.schedule(t + 100, tick);
    q.schedule(++t, tick);
    q.cancel(pending);     // cancel while pending
    q.cancel(last_fired);  // cancel an id that already fired
    last_fired = q.schedule(++t, tick);
    pop_and_run();
    pop_and_run();
  }
  const double secs = bench::seconds_since(start);
  return static_cast<double>(fired) / secs;
}

}  // namespace

int main() {
  constexpr int kReps = 5;
  const geo::CampusMap campus = geo::make_campus(sim::Rng(42));
  const ran::Deployment dep = ran::make_deployment(&campus, sim::Rng(7));

  std::vector<double> geo_qps, sinr_qps, churn_eps;
  double geo_sum = 0, sinr_sum = 0;
  for (int r = 0; r < kReps; ++r) {
    const GeoResult g = geometry_rep(campus);
    geo_qps.push_back(g.qps);
    geo_sum = g.checksum;  // identical every rep: pure functions, fixed seed
    const GeoResult s = sinr_rep(campus, dep);
    sinr_qps.push_back(s.qps);
    sinr_sum = s.checksum;
    churn_eps.push_back(event_churn_rep(400'000));
  }

  std::printf(
      "{\"reps\": %d, \"geometry_qps_median\": %.0f, "
      "\"geometry_checksum\": %.6f, \"sinr_sweep_qps_median\": %.0f, "
      "\"sinr_checksum\": %.6f, \"event_churn_eps_median\": %.0f}\n",
      kReps, bench::median(geo_qps), geo_sum, bench::median(sinr_qps), sinr_sum,
      bench::median(churn_eps));
  return 0;
}
