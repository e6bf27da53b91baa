// Energy experiments: Fig. 21 (per-app power breakdown), Fig. 22
// (energy-per-bit vs transfer duration), Fig. 23 (fine-grained power trace
// of burst web loading) and Table 4 (power-management policies), plus an
// echo of Table 7's DRX parameters.
#include <ostream>

#include "core/experiment.h"
#include "core/paper.h"
#include "energy/power_strip.h"
#include "energy/rrc_power_machine.h"
#include "energy/traffic_trace.h"
#include "measure/plot.h"
#include "measure/table.h"

namespace fiveg::core {
namespace {

using energy::RadioModel;
using measure::TextTable;
using sim::kSecond;

void run_fig21_energy_apps(const ExperimentContext& ctx) {
  const energy::RrcPowerMachine machine;
  int n = 0;
  const energy::AppProfile* apps = energy::daily_apps(&n);

  TextTable t("Fig. 21 — mean power by component (mW, 60 s session)",
              {"app", "network", "system", "screen", "app", "radio",
               "total", "radio share"});
  double share5_sum = 0;
  for (int i = 0; i < n; ++i) {
    for (const RadioModel m : {RadioModel::kNrNsa, RadioModel::kLteOnly}) {
      const auto b =
          energy::measure_app_session(machine, m, apps[i], 60 * kSecond);
      const double secs = 60.0;
      t.add_row({apps[i].name, m == RadioModel::kNrNsa ? "5G" : "4G",
                 TextTable::num(b.system_j * 1000 / secs, 0),
                 TextTable::num(b.screen_j * 1000 / secs, 0),
                 TextTable::num(b.app_j * 1000 / secs, 0),
                 TextTable::num(b.radio_j * 1000 / secs, 0),
                 TextTable::num(b.mean_power_mw(60 * kSecond), 0),
                 TextTable::pct(b.radio_share())});
      if (m == RadioModel::kNrNsa) share5_sum += b.radio_share();
    }
  }
  t.print(*ctx.out);
  TextTable s("Fig. 21 summary", {"metric", "measured", "paper"});
  s.add_row({"5G radio share (avg)", TextTable::pct(share5_sum / n),
             TextTable::pct(paper::kRadioShare5G)});
  s.print(*ctx.out);
  ctx.metric("radio_share_5g", share5_sum / n, "fraction");
}

void run_fig22_energy_per_bit(const ExperimentContext& ctx) {
  const energy::RrcPowerMachine machine;
  TextTable t("Fig. 22 — energy per bit (uJ/bit) vs transfer time",
              {"transfer (s)", "4G", "5G", "4G/5G ratio"});
  double last_ratio = 0;
  for (const double secs : {1.0, 5.0, 10.0, 20.0, 30.0, 50.0}) {
    const double lte = energy::saturated_energy_per_bit_uj(
        machine, RadioModel::kLteOnly, sim::from_seconds(secs));
    const double nr = energy::saturated_energy_per_bit_uj(
        machine, RadioModel::kNrNsa, sim::from_seconds(secs));
    last_ratio = lte / nr;
    t.add_row({TextTable::num(secs, 0), TextTable::num(lte, 4),
               TextTable::num(nr, 4), TextTable::num(last_ratio, 1)});
    ctx.metric_point("lte_uj_per_bit", secs, lte, "uJ/bit");
    ctx.metric_point("nr_uj_per_bit", secs, nr, "uJ/bit");
  }
  t.print(*ctx.out);
  ctx.metric("energy_per_bit_ratio", last_ratio, "x");
  *ctx.out << "long-transfer ratio " << TextTable::num(last_ratio, 1)
           << "x vs paper ~" << TextTable::num(paper::kEnergyPerBitRatio, 0)
           << "x. Absolute uJ/bit runs below the paper's axis because our "
              "serving rates are the full UDP baselines; the shape "
              "(monotone decrease, ~4x gap) is the reproduced claim.\n\n";
}

void run_fig23_power_trace(const ExperimentContext& ctx) {
  const energy::RrcPowerMachine machine;
  const energy::TrafficTrace trace =
      energy::web_browsing_trace(sim::Rng(ctx.seed).fork("fig23"));
  const auto nsa = machine.replay(trace, RadioModel::kNrNsa);
  const auto lte = machine.replay(trace, RadioModel::kLteOnly);

  TextTable t("Fig. 23 — radio power trace (mW, 2 s means)",
              {"t (s)", "5G NSA", "4G"});
  const auto nsa_w = nsa.power_trace_mw.window_means(
      0, nsa.duration, 2 * kSecond);
  const auto lte_w = lte.power_trace_mw.window_means(
      0, nsa.duration, 2 * kSecond);
  for (std::size_t i = 0; i < nsa_w.size(); i += 2) {
    t.add_row({TextTable::num(sim::to_seconds(nsa_w[i].at), 0),
               TextTable::num(nsa_w[i].value, 0),
               i < lte_w.size() ? TextTable::num(lte_w[i].value, 0) : "0"});
  }
  t.print(*ctx.out);

  measure::PlotOptions popt;
  popt.title = "Fig. 23 — 5G NSA radio power (mW) during 10 web loads";
  popt.x_label = "s";
  popt.y_label = "mW";
  *ctx.out << measure::line_chart(
                  nsa.power_trace_mw.window_means(0, nsa.duration,
                                                  sim::kSecond),
                  popt)
           << "\n";

  TextTable s("Fig. 23 annotations", {"metric", "measured", "paper"});
  s.add_row({"5G/4G energy for the same loads",
             TextTable::num(nsa.radio_joules / lte.radio_joules, 2),
             TextTable::num(paper::kWebEnergyRatio5GOver4G, 2)});
  s.add_row({"4G tail after last transfer (s)",
             TextTable::num(sim::to_seconds(lte.duration - lte.completion), 1),
             "~10"});
  s.add_row({"5G tail after last transfer (s)",
             TextTable::num(sim::to_seconds(nsa.duration - nsa.completion), 1),
             "~20"});
  s.print(*ctx.out);
  ctx.metric("web_energy_ratio_5g_over_4g", nsa.radio_joules / lte.radio_joules,
             "x");
  ctx.metric("lte_tail_s", sim::to_seconds(lte.duration - lte.completion), "s");
  ctx.metric("nr_tail_s", sim::to_seconds(nsa.duration - nsa.completion), "s");
}

void run_table4_power_policies(const ExperimentContext& ctx) {
  sim::Rng rng = sim::Rng(ctx.seed).fork("table4");

  struct Workload {
    const char* name;
    energy::TrafficTrace trace;
    energy::RrcPowerMachine machine;
    int paper_row;
  };
  // Web and file ride the downlink baselines; telephony pushes uplink,
  // where 4G's 50 Mbps cannot carry a UHD stream in real time — the
  // completion stretch behind Table 4's inverted Video row.
  energy::ReplayConfig ul_cfg;
  // Effective uplink rates under daytime contention and HARQ overhead:
  // a UHD stream (60 Mbps) overruns 4G's uplink by >2x.
  ul_cfg.lte_rate_bps = 25e6;
  ul_cfg.nr_rate_bps = 130e6;
  const Workload workloads[] = {
      {"Web", energy::web_browsing_trace(rng.fork("web")),
       energy::RrcPowerMachine{}, 0},
      {"Video",
       energy::video_telephony_trace(rng.fork("video"), 90 * kSecond, 60e6),
       energy::RrcPowerMachine{ul_cfg}, 1},
      {"File", energy::file_transfer_trace(),
       energy::RrcPowerMachine{}, 2},
  };
  const RadioModel models[] = {RadioModel::kLteOnly, RadioModel::kNrNsa,
                               RadioModel::kNrOracle,
                               RadioModel::kDynamicSwitch};

  TextTable t("Table 4 — radio energy (J), measured | paper",
              {"model", "Web", "Web p.", "Video", "Video p.", "File",
               "File p."});
  double joules[3][4];
  for (int mi = 0; mi < 4; ++mi) {
    std::vector<std::string> row{energy::to_string(models[mi])};
    for (int wi = 0; wi < 3; ++wi) {
      const auto r =
          workloads[wi].machine.replay(workloads[wi].trace, models[mi]);
      joules[wi][mi] = r.radio_joules;
      row.push_back(TextTable::num(r.radio_joules, 1));
      row.push_back(TextTable::num(paper::kTable4[wi][mi], 1));
    }
    t.add_row(std::move(row));
  }
  t.print(*ctx.out);

  TextTable s("Policy savings", {"metric", "measured", "paper"});
  for (int wi = 0; wi < 3; ++wi) {
    s.add_row({std::string("Oracle vs NSA (") + workloads[wi].name + ")",
               TextTable::pct(1.0 - joules[wi][2] / joules[wi][1]),
               TextTable::pct(paper::kOracleSavings[wi])});
    ctx.metric(std::string("oracle_saving_") + workloads[wi].name,
               1.0 - joules[wi][2] / joules[wi][1], "fraction");
  }
  ctx.metric("dyn_web_saving", 1.0 - joules[0][3] / joules[0][1], "fraction");
  s.add_row({"Dyn. switch vs NSA (Web)",
             TextTable::pct(1.0 - joules[0][3] / joules[0][1]),
             TextTable::pct(paper::kDynWebSaving)});
  s.print(*ctx.out);

  // Table 7 echo: the DRX parameters driving all of the above.
  const ran::DrxConfig lte = ran::lte_drx();
  const ran::DrxConfig nr = workloads[0].machine.config().nr_drx;
  TextTable t7("Table 7 — NSA power-management parameters (ms)",
               {"parameter", "value"});
  t7.add_row({"Tidle (paging cycle)",
              TextTable::num(sim::to_millis(ran::kPagingCycle), 0)});
  t7.add_row({"Ton (on-duration)",
              TextTable::num(sim::to_millis(ran::kOnDuration), 0)});
  t7.add_row({"TLTE_pro",
              TextTable::num(sim::to_millis(ran::kLtePromotion), 0)});
  t7.add_row({"T4r_5r", TextTable::num(sim::to_millis(ran::kLteToNr), 0)});
  t7.add_row({"TNR_pro", TextTable::num(sim::to_millis(ran::kNrPromotion), 0)});
  t7.add_row({"Tinac", TextTable::num(sim::to_millis(nr.inactivity), 0)});
  t7.add_row({"Tlong (C-DRX cycle)",
              TextTable::num(sim::to_millis(ran::kLongDrxCycle), 0)});
  t7.add_row({"Ttail 4G / 5G",
              TextTable::num(sim::to_millis(lte.tail), 0) + " / " +
                  TextTable::num(sim::to_millis(nr.tail), 0)});
  t7.print(*ctx.out);
}

}  // namespace

void register_energy_experiments(ExperimentRegistry& reg) {
  reg.add({"fig21_energy_apps", "Figure 21",
           "Power breakdown running daily apps: the 5G radio out-draws the "
           "screen and doubles-to-triples the 4G radio",
           /*smoke=*/true,
           run_fig21_energy_apps});
  reg.add({"fig22_energy_per_bit", "Figure 22",
           "Radio energy per bit vs transfer duration under saturated "
           "traffic: 5G approaches 1/4 of 4G",
           /*smoke=*/true,
           run_fig22_energy_per_bit});
  reg.add({"fig23_power_trace", "Figure 23",
           "Power trace of 10 web loads at 3 s intervals: jagged DRX plateaus "
           "and the compounded NSA tail",
           /*smoke=*/true,
           run_fig23_power_trace});
  reg.add({"table4_power_policies", "Table 4 (and Table 7)",
           "Energy of power-management models over web/video/file traces; "
           "dynamic 4G/5G switching recovers most of the waste",
           /*smoke=*/true,
           run_table4_power_policies});
}

}  // namespace fiveg::core
