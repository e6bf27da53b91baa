// Hand-off experiments: Fig. 4 (RSRQ evolution around a hand-off), Fig. 5
// (RSRQ gap CDF), Fig. 6 (hand-off latency CDFs), Fig. 10 (HARQ
// retransmission distribution) and Fig. 12 (TCP throughput drop across
// hand-offs).
#include <algorithm>
#include <map>
#include <ostream>

#include "app/iperf.h"
#include "core/experiment.h"
#include "core/paper.h"
#include "core/scenario.h"
#include "geo/route.h"
#include "measure/cdf.h"
#include "measure/plot.h"
#include "measure/table.h"
#include "obs/prof.h"
#include "ran/handoff.h"
#include "ran/harq.h"

namespace fiveg::core {
namespace {

using measure::TextTable;
using ran::HandoffType;

// Runs the mobility engine over one long survey walk (walk `w` of the
// pooled set) and returns its hand-off records; `trace` may be null.
std::vector<ran::HandoffRecord> walk_handoffs(std::uint64_t seed, int w,
                                              ran::RsrqTrace* trace) {
  const Scenario sc(seed + w);
  sim::Simulator simr;
  ran::MobilityConfig cfg;
  cfg.speed_mps = 1.5 + 0.7 * w;  // 3-10 km/h, like the paper
  ran::HandoffEngine engine(&simr, &sc.deployment(), cfg,
                            sim::Rng(seed).fork("ho" + std::to_string(w)),
                            trace);
  engine.start(geo::make_survey_route(sc.campus(), 70.0));
  simr.run_until(40 * sim::kMinute);
  return engine.records();
}

// Pools the hand-off records of walks [first, walks) (the paper pools 407
// events over ~80 minutes).
void collect_handoffs(std::uint64_t seed, int first, int walks,
                      std::vector<ran::HandoffRecord>& all) {
  for (int w = first; w < walks; ++w) {
    const auto records = walk_handoffs(seed, w, nullptr);
    all.insert(all.end(), records.begin(), records.end());
  }
}

void run_fig4_5_ho_quality(const ExperimentContext& ctx) {
  ran::RsrqTrace trace;
  auto records = walk_handoffs(ctx.seed, 0, &trace);

  // Fig. 4: the RSRQ trace around the first 5G-5G hand-off of walk 0.
  const auto first_55 = std::find_if(
      records.begin(), records.end(),
      [](const ran::HandoffRecord& r) { return r.type == HandoffType::k5G5G; });
  const measure::TimeSeries& serving = trace.nr_serving_db;
  const measure::TimeSeries& neighbor = trace.nr_best_other_db;
  if (first_55 != records.end() && !serving.empty() && !neighbor.empty()) {
    const sim::Time t0 = first_55->trigger_at;
    TextTable t("Fig. 4 — RSRQ around a 5G-5G hand-off (trigger at 0 s)",
                {"t (s)", "serving RSRQ (dB)", "best neighbour RSRQ (dB)"});
    for (sim::Time dt = -6 * sim::kSecond; dt <= 6 * sim::kSecond;
         dt += sim::kSecond) {
      const auto s = serving.summarize(t0 + dt, t0 + dt + sim::kSecond);
      const auto n = neighbor.summarize(t0 + dt, t0 + dt + sim::kSecond);
      t.add_row({TextTable::num(sim::to_seconds(dt), 0),
                 TextTable::num(s.mean(), 1), TextTable::num(n.mean(), 1)});
    }
    t.print(*ctx.out);
  }
  collect_handoffs(ctx.seed, 1, 4, records);

  // Fig. 5: CDF of the RSRQ gap (after - before) per hand-off type.
  std::map<HandoffType, measure::Cdf> gaps;
  for (const auto& r : records) {
    if (r.after_recorded) {
      gaps[r.type].add(r.quality_after_db - r.quality_before_db);
    }
  }
  TextTable t5("Fig. 5 — RSRQ gap before/after hand-off",
               {"type", "n", "median gap (dB)", ">= 3 dB gain",
                "paper (all types avg)"});
  std::size_t total = 0, good = 0;
  for (auto& [type, cdf] : gaps) {
    if (cdf.empty()) continue;
    const double frac_good = 1.0 - cdf.fraction_below(3.0);
    total += cdf.count();
    good += static_cast<std::size_t>(frac_good * cdf.count());
    t5.add_row({ran::to_string(type), std::to_string(cdf.count()),
                TextTable::num(cdf.quantile(0.5), 1),
                TextTable::pct(frac_good),
                TextTable::pct(paper::kHoGoodFraction)});
  }
  if (total > 0) {
    const double good_frac = static_cast<double>(good) / total;
    t5.add_row({"all", std::to_string(total), "",
                TextTable::pct(good_frac),
                TextTable::pct(paper::kHoGoodFraction)});
    ctx.metric("ho_good_fraction", good_frac, "fraction");
    ctx.metric("ho_count", static_cast<double>(total), "count");
  }
  t5.print(*ctx.out);
}

void run_fig6_ho_latency(const ExperimentContext& ctx) {
  std::vector<ran::HandoffRecord> records;
  collect_handoffs(ctx.seed, 0, 4, records);
  std::map<HandoffType, measure::Cdf> latency;
  for (const auto& r : records) {
    latency[r.type].add(sim::to_millis(r.latency));
  }

  TextTable t("Fig. 6 — hand-off latency",
              {"type", "n", "mean (ms)", "p10 (ms)", "p90 (ms)",
               "paper mean (ms)"});
  const auto paper_mean = [](HandoffType type) {
    switch (type) {
      case HandoffType::k4G4G:
        return paper::kHoLatency44Ms;
      case HandoffType::k5G5G:
        return paper::kHoLatency55Ms;
      case HandoffType::k4G5G:
        return paper::kHoLatency45Ms;
      default:
        return 0.0;
    }
  };
  for (auto& [type, cdf] : latency) {
    if (cdf.empty()) continue;
    const double paper_ms = paper_mean(type);
    t.add_row({ran::to_string(type), std::to_string(cdf.count()),
               TextTable::num(cdf.mean(), 1),
               TextTable::num(cdf.quantile(0.1), 1),
               TextTable::num(cdf.quantile(0.9), 1),
               paper_ms > 0 ? TextTable::num(paper_ms, 1) : "-"});
    ctx.metric(std::string("ho_latency_") + ran::to_string(type), cdf.mean(),
               "ms");
  }
  t.print(*ctx.out);

  if (!latency[HandoffType::k5G5G].empty()) {
    measure::PlotOptions popt;
    popt.title = "Fig. 6 — 5G-5G hand-off latency CDF (ms)";
    popt.x_label = "ms";
    *ctx.out << measure::cdf_chart(latency[HandoffType::k5G5G], popt) << "\n";
  }
}

void run_fig10_harq_retx(const ExperimentContext& ctx) {
  sim::Rng rng = sim::Rng(ctx.seed).fork("harq");
  const ran::HarqProcess lte(ran::lte_harq());
  const ran::HarqProcess nr(ran::nr_harq());

  // Sample a million transport blocks per RAT like a day of XCAL logs.
  const int blocks = 1'000'000;
  std::array<int, 6> lte_counts{}, nr_counts{};
  {
    // No simulator runs here, so the sampling loop is the simulate phase.
    const obs::prof::ScopedPhase phase("simulate");
    for (int i = 0; i < blocks; ++i) {
      lte_counts[std::min(lte.sample_attempts(rng) - 1, 5)]++;
      nr_counts[std::min(nr.sample_attempts(rng) - 1, 5)]++;
    }
  }
  TextTable t("Fig. 10 — packets needing >= n retransmissions",
              {"n", "4G measured", "4G model", "5G measured", "5G model"});
  for (int n = 1; n <= 4; ++n) {
    int lte_ge = 0, nr_ge = 0;
    for (int k = n; k <= 5; ++k) {
      lte_ge += lte_counts[static_cast<std::size_t>(k)];
      nr_ge += nr_counts[static_cast<std::size_t>(k)];
    }
    t.add_row({std::to_string(n),
               TextTable::pct(static_cast<double>(lte_ge) / blocks),
               TextTable::pct(lte.attempt_probability(n + 1)),
               TextTable::pct(static_cast<double>(nr_ge) / blocks),
               TextTable::pct(nr.attempt_probability(n + 1))});
    ctx.metric_point("lte_retx_ge", n, static_cast<double>(lte_ge) / blocks,
                     "fraction");
    ctx.metric_point("nr_retx_ge", n, static_cast<double>(nr_ge) / blocks,
                     "fraction");
  }
  t.print(*ctx.out);
  *ctx.out << "residual loss after 32 attempts: 4G "
           << lte.residual_loss() << ", 5G " << nr.residual_loss()
           << " (paper: ~2.3e-10 even on a 50%-loss link)\n\n";
}

void run_fig12_ho_throughput(const ExperimentContext& ctx) {
  // A BBR bulk flow rides the path while the UE walks; hand-off
  // interruptions stall the RAN hop. Throughput is measured over 10 ms
  // windows right before vs right after each hand-off.
  std::map<HandoffType, measure::Cdf> drops;
  for (int w = 0; w < 2; ++w) {
    const Scenario sc(ctx.seed + w);
    sim::Simulator simr;
    ran::MobilityConfig mcfg;
    mcfg.speed_mps = 2.0 + w;
    ran::HandoffEngine engine(&simr, &sc.deployment(), mcfg,
                              sim::Rng(ctx.seed).fork("w" + std::to_string(w)));
    engine.start(geo::make_survey_route(sc.campus(), 70.0));

    TestbedOptions opt;
    opt.rat = radio::Rat::kNr;
    opt.cross_traffic = false;
    // Mobile cell-edge rate, not the stationary 880 Mbps baseline (also
    // keeps the packet count of a multi-minute walk tractable).
    opt.ran_rate_bps = 100e6;
    opt.ran_blocked_fn = [&engine, &simr] {
      return engine.data_interrupted(simr.now());
    };
    Testbed bed(&simr, opt, ctx.seed + 100 + w);
    app::TcpSession session(&simr, &bed.path(), &bed.fanout(),
                            tcp::TcpConfig{.algo = tcp::CcAlgo::kBbr});
    session.sender().start_bulk();
    simr.run_until(5 * sim::kMinute);

    for (const auto& r : engine.records()) {
      // The paper measures throughput in small windows immediately
      // before vs immediately after the hand-off fires: the "after"
      // window spans the control-plane interruption plus the
      // transport's recovery — what a user's flow actually experiences.
      const sim::Time w = 500 * sim::kMillisecond;
      const double before =
          session.receiver().mean_goodput_bps(r.trigger_at - w, r.trigger_at);
      const double after = session.receiver().mean_goodput_bps(
          r.trigger_at, r.trigger_at + w);
      if (before > 1e6) {
        drops[r.type].add(std::max(0.0, 1.0 - after / before));
      }
    }
  }

  TextTable t("Fig. 12 — normalised throughput drop across hand-off",
              {"type", "n", "mean drop", "paper"});
  const auto paper_drop = [](HandoffType type) -> double {
    switch (type) {
      case HandoffType::k5G5G:
        return paper::kHoDrop55;
      case HandoffType::k5G4G:
        return paper::kHoDrop54;
      case HandoffType::k4G4G:
        return paper::kHoDrop44;
      default:
        return -1;
    }
  };
  for (auto& [type, cdf] : drops) {
    if (cdf.empty()) continue;
    const double p = paper_drop(type);
    t.add_row({ran::to_string(type), std::to_string(cdf.count()),
               TextTable::pct(cdf.mean()),
               p >= 0 ? TextTable::pct(p) : "-"});
    ctx.metric(std::string("ho_drop_") + ran::to_string(type), cdf.mean(),
               "fraction");
  }
  t.print(*ctx.out);
}

void run_ho_event_mix(const ExperimentContext& ctx) {
  const Scenario sc(ctx.seed);
  const auto& dep = sc.deployment();
  const geo::Route route = geo::make_survey_route(sc.campus(), 70.0);

  // RSRQ-threshold configurations in the spirit of typical ISP settings.
  ran::ThresholdDetector a1(ran::ThresholdDetector::Direction::kAbove, -11.0);
  ran::ThresholdDetector a2(ran::ThresholdDetector::Direction::kBelow, -24.0);
  ran::A3Detector a3;
  ran::A5Detector a5(-17.5, -16.0);
  ran::ThresholdDetector b1(ran::ThresholdDetector::Direction::kAbove,
                            -8.2);  // inter-RAT (LTE) quality

  std::uint64_t n_a1 = 0, n_a2 = 0, n_a3 = 0, n_a5 = 0, n_b1 = 0;
  const double speed = 1.8;  // m/s
  const ran::Cell* serving_cell = nullptr;  // sticky, like an attached UE
  {
    // No simulator runs here, so the sampling loop is the simulate phase.
    const obs::prof::ScopedPhase phase("simulate");
    for (double d = 0; d < route.length_m(); d += speed * 0.1) {
      const auto at = static_cast<sim::Time>(d / speed * sim::kSecond);
      const geo::Point p = route.position_at(d);
      const auto nr = dep.measure(radio::Rat::kNr, p);
      ran::ServingAndBestOther cells =
          ran::serving_and_best_other(nr, serving_cell);
      if (cells.serving == nullptr) {  // initial camp / reselection after loss
        const ran::CellMeasurement* strongest = nullptr;
        for (const auto& m : nr) {
          if (strongest == nullptr || m.rsrp_dbm > strongest->rsrp_dbm) {
            strongest = &m;
          }
        }
        serving_cell = strongest->cell;
        cells = ran::serving_and_best_other(nr, serving_cell);
      }
      const auto [serving, neighbor] = cells;
      if (neighbor == nullptr) continue;
      const auto lte = dep.best(radio::Rat::kLte, p);
      n_a1 += a1.update(at, serving->rsrq_db);
      n_a2 += a2.update(at, serving->rsrq_db);
      if (a3.update(at, serving->rsrq_db, neighbor->rsrq_db)) {
        ++n_a3;
        serving_cell = neighbor->cell;  // the gNB executes the A3 HO
      }
      n_a5 += a5.update(at, serving->rsrq_db, neighbor->rsrq_db);
      n_b1 += b1.update(at, lte.rsrq_db);
    }
  }

  const double total = static_cast<double>(n_a1 + n_a2 + n_a3 + n_a5 + n_b1);
  TextTable t("Measurement-report event mix over the survey walk",
              {"event", "count", "measured share", "paper share"});
  const auto row = [&](const char* name, std::uint64_t n, double paper) {
    t.add_row({name, std::to_string(n),
               total > 0 ? TextTable::pct(n / total) : "-",
               TextTable::pct(paper)});
    if (total > 0) {
      ctx.metric(std::string("share_") + name, n / total, "fraction");
    }
  };
  row("A1", n_a1, 0.2198);
  row("A2", n_a2, 0.0018);
  row("A3", n_a3, 0.6725);
  row("A5", n_a5, 0.0919);
  row("B1", n_b1, 0.0140);
  t.print(*ctx.out);
  *ctx.out << "the gNB acts only on A3 (the ISP's configuration); all "
              "five event types are implemented in ran/measurement_events\n\n";
}

}  // namespace

void register_handoff_experiments(ExperimentRegistry& reg) {
  reg.add({"fig4_5_ho_quality", "Figures 4 and 5",
           "Serving/neighbour RSRQ around hand-offs; only ~75% of hand-offs "
           "actually improve link quality",
           /*smoke=*/false,
           run_fig4_5_ho_quality});
  reg.add({"fig6_ho_latency", "Figure 6",
           "Hand-off latency: NSA makes 5G-5G hand-offs 3.6x slower than 4G-4G",
           /*smoke=*/false, run_fig6_ho_latency});
  reg.add({"fig10_harq_retx", "Figure 10",
           "HARQ retransmission distribution: the RAN hides its losses",
           /*smoke=*/true, run_fig10_harq_retx});
  reg.add({"fig12_ho_throughput", "Figure 12",
           "TCP throughput drop across hand-offs, by type", /*smoke=*/false,
           run_fig12_ho_throughput});
  reg.add({"ho_event_mix", "Sec. 3.4 / Table 5 (measurement-report event mix)",
           "Share of A1/A2/A3/A5/B1 measurement reports along a survey walk "
           "(the paper: 21.98/0.18/67.25/9.19/1.40%)",
           /*smoke=*/true,
           run_ho_event_mix});
}

}  // namespace fiveg::core
