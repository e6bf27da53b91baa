// Latency experiments: Fig. 13 (4G vs 5G RTT over many paths), Fig. 14
// (per-hop RTT breakdown) and Fig. 15 (RTT vs geographic path length over
// the Table 6 server set).
#include <ostream>

#include "core/experiment.h"
#include "core/paper.h"
#include "core/scenario.h"
#include "measure/stats.h"
#include "measure/table.h"
#include "net/topology.h"
#include "net/traceroute.h"

namespace fiveg::core {
namespace {

using measure::TextTable;
using sim::kSecond;

// Mean end-to-end RTT (ms) to a server over a RAT, via 30 probes.
measure::RunningStats path_rtt_ms(radio::Rat rat,
                                  const net::ServerInfo& server,
                                  std::uint64_t seed) {
  sim::Simulator simr;
  net::CellularPathOptions opt = make_server_path_options(rat, server);
  net::PathNetwork path(&simr, make_cellular_path(opt, sim::Rng(seed)));
  measure::RunningStats rtt;
  for (int i = 0; i < 30; ++i) {
    simr.schedule_in(i * 100 * sim::kMillisecond, [&] {
      path.probe(path.hop_count(),
                 [&](sim::Time t) { rtt.add(sim::to_millis(t)); });
    });
  }
  simr.run();
  return rtt;
}

void run_fig13_rtt_scatter(const ExperimentContext& ctx) {
  // 4 gNB sites x 20 servers = 80 paths, like the paper.
  measure::RunningStats nr_all, lte_all, gap;
  TextTable t("Fig. 13 — per-server RTT (ms), averaged over 4 sites",
              {"city", "5G RTT", "4G RTT", "gap"});
  for (const net::ServerInfo& server : net::speedtest_servers()) {
    measure::RunningStats nr_mean, lte_mean;
    for (int site = 0; site < 4; ++site) {
      const auto nr = path_rtt_ms(radio::Rat::kNr, server,
                                  ctx.seed + 17 * site);
      const auto lte = path_rtt_ms(radio::Rat::kLte, server,
                                   ctx.seed + 17 * site);
      nr_mean.add(nr.mean());
      lte_mean.add(lte.mean());
      nr_all.add(nr.mean());
      lte_all.add(lte.mean());
      gap.add(lte.mean() - nr.mean());
    }
    t.add_row({server.city, TextTable::num(nr_mean.mean(), 1),
               TextTable::num(lte_mean.mean(), 1),
               TextTable::num(lte_mean.mean() - nr_mean.mean(), 1)});
  }
  t.print(*ctx.out);

  TextTable s("Fig. 13 summary", {"metric", "measured", "paper"});
  s.add_row({"5G one-way latency (ms)",
             TextTable::num(nr_all.mean() / 2, 1),
             TextTable::num(paper::kNrOneWayMs, 1)});
  s.add_row({"RTT gap 4G - 5G (ms)", TextTable::num(gap.mean(), 1),
             TextTable::num(paper::kRttGapMs, 1)});
  s.print(*ctx.out);
  ctx.metric("nr_one_way_ms", nr_all.mean() / 2, "ms");
  ctx.metric("rtt_gap_ms", gap.mean(), "ms");
}

void run_fig14_hop_breakdown(const ExperimentContext& ctx) {
  TextTable t("Fig. 14 — RTT vs hop count (ms)", {"hop", "5G", "4G", "note"});
  std::array<std::vector<double>, 2> rtts;  // [0]=5G, [1]=4G
  for (const radio::Rat rat : {radio::Rat::kNr, radio::Rat::kLte}) {
    sim::Simulator simr;
    net::CellularPathOptions opt;
    opt.rat = rat;
    opt.ran.rat = rat;
    opt.ran.bitrate_bps =
        baseline_rate_bps(rat, ran::LoadRegime::kDay, Direction::kUplink);
    opt.wired_hops = 6;  // 8 hops total, like the paper's example path
    net::PathNetwork path(&simr, make_cellular_path(opt, sim::Rng(ctx.seed)));
    net::Traceroute tr(&simr, &path, 30, 200 * sim::kMillisecond);
    std::vector<net::HopRtt> hops;
    tr.run([&](std::vector<net::HopRtt> r) { hops = std::move(r); });
    simr.run();
    auto& dst = rtts[rat == radio::Rat::kNr ? 0 : 1];
    for (const auto& h : hops) dst.push_back(h.rtt_ms.mean());
  }
  for (std::size_t h = 0; h < rtts[0].size(); ++h) {
    std::string note;
    if (h == 0) note = "RAN (paper: 2.19 vs 2.6)";
    if (h == 1) note = "EPC/fronthaul (paper: ~20 ms apart)";
    t.add_row({std::to_string(h + 1), TextTable::num(rtts[0][h], 2),
               TextTable::num(rtts[1][h], 2), note});
    ctx.metric_point("nr_rtt_by_hop", static_cast<double>(h + 1), rtts[0][h],
                     "ms");
    ctx.metric_point("lte_rtt_by_hop", static_cast<double>(h + 1), rtts[1][h],
                     "ms");
  }
  t.print(*ctx.out);
}

void run_fig15_rtt_distance(const ExperimentContext& ctx) {
  TextTable t("Fig. 15 — RTT vs geographic distance",
              {"server", "km", "5G RTT (ms)", "4G RTT (ms)",
               "gap/RTT"});
  measure::RunningStats rtt_2500;
  for (const net::ServerInfo& server : net::speedtest_servers()) {
    const auto nr = path_rtt_ms(radio::Rat::kNr, server, ctx.seed + 29);
    const auto lte = path_rtt_ms(radio::Rat::kLte, server, ctx.seed + 29);
    if (server.distance_km > 2200 && server.distance_km < 2600) {
      rtt_2500.add(nr.mean());
    }
    t.add_row({server.city, TextTable::num(server.distance_km, 0),
               TextTable::num(nr.mean(), 1), TextTable::num(lte.mean(), 1),
               TextTable::pct((lte.mean() - nr.mean()) / lte.mean())});
    ctx.metric_point("nr_rtt_vs_km", server.distance_km, nr.mean(), "ms");
  }
  t.print(*ctx.out);
  if (rtt_2500.count() > 0) {
    *ctx.out << "5G RTT near 2500 km: " << TextTable::num(rtt_2500.mean(), 1)
             << " ms (paper: up to " << paper::kRttAt2500KmMs
             << " ms on average)\n\n";
  }
}

}  // namespace

void register_latency_experiments(ExperimentRegistry& reg) {
  reg.add({"fig13_rtt_scatter", "Figure 13",
           "4G vs 5G RTT across 80 wide-area paths: ~22 ms constant gap",
           /*smoke=*/true, run_fig13_rtt_scatter});
  reg.add({"fig14_hop_breakdown", "Figure 14",
           "Per-hop RTT on an 8-hop path: the flat 5G core saves ~20 ms at "
           "hop 2; the RAN saves <1 ms",
           /*smoke=*/true,
           run_fig14_hop_breakdown});
  reg.add({"fig15_rtt_distance", "Figure 15 / Table 6",
           "RTT vs path length: wireline distance swamps 5G's edge gains",
           /*smoke=*/true, run_fig15_rtt_distance});
}

}  // namespace fiveg::core
