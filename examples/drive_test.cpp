// Drive test: replicate the paper's measurement campaign — walk the whole
// campus recording the NR RSRQ trace, then print its serving and
// best-neighbour summary, the hand-off log and per-type latency statistics.
//
//   ./example_drive_test [seed] [speed_kmh]
#include <cstdlib>
#include <iostream>
#include <map>

#include "core/scenario.h"
#include "geo/route.h"
#include "measure/stats.h"
#include "measure/table.h"
#include "ran/handoff.h"

int main(int argc, char** argv) {
  using namespace fiveg;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  const double speed_kmh = argc > 2 ? std::atof(argv[2]) : 5.0;

  const core::Scenario scenario(seed);
  sim::Simulator simr;
  ran::RsrqTrace trace;

  ran::MobilityConfig cfg;
  cfg.speed_mps = speed_kmh / 3.6;
  ran::HandoffEngine engine(&simr, &scenario.deployment(), cfg,
                            sim::Rng(seed).fork("walk"), &trace);

  const geo::Route route = geo::make_survey_route(scenario.campus());
  std::cout << "Walking " << route.length_m() / 1000.0 << " km at "
            << speed_kmh << " km/h (paper: 6.019 km at 4-5 km/h)\n\n";
  engine.start(route);
  simr.run_until(sim::from_seconds(route.length_m() / cfg.speed_mps) +
                 sim::kSecond);

  // NR RSRQ along the walk: the serving cell and the best other cell.
  measure::TextTable rsrq("NR RSRQ along the walk",
                          {"series", "mean (dB)", "min (dB)", "max (dB)",
                           "samples"});
  const auto summarise = [&rsrq](const char* name,
                                  const measure::TimeSeries& series) {
    if (series.empty()) return;  // e.g. no NR attach on a short walk
    const auto s = series.summarize();
    rsrq.add_row({name, measure::TextTable::num(s.mean(), 1),
                  measure::TextTable::num(s.min(), 1),
                  measure::TextTable::num(s.max(), 1),
                  std::to_string(s.count())});
  };
  summarise("serving", trace.nr_serving_db);
  summarise("best neighbour", trace.nr_best_other_db);
  rsrq.print(std::cout);

  // Hand-off log (first ten events) and per-type latency.
  measure::TextTable log("Hand-off log (first 10)",
                         {"t (s)", "type", "from", "to", "latency (ms)"});
  std::map<ran::HandoffType, measure::RunningStats> latency;
  std::size_t shown = 0;
  for (const ran::HandoffRecord& r : engine.records()) {
    latency[r.type].add(sim::to_millis(r.latency));
    if (shown++ < 10) {
      log.add_row({measure::TextTable::num(sim::to_seconds(r.trigger_at), 1),
                   ran::to_string(r.type), std::to_string(r.from_pci),
                   std::to_string(r.to_pci),
                   measure::TextTable::num(sim::to_millis(r.latency), 1)});
    }
  }
  log.print(std::cout);

  measure::TextTable lat("Hand-off latency by type",
                         {"type", "count", "mean (ms)"});
  for (const auto& [type, stats] : latency) {
    lat.add_row({ran::to_string(type), std::to_string(stats.count()),
                 measure::TextTable::num(stats.mean(), 1)});
  }
  lat.print(std::cout);
  return 0;
}
