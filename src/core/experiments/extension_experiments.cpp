// Extension experiments: the paper's discussion/future-work directions
// built out — CoDel AQM vs buffer growth (Sec. 4.2's trade-off), mobile
// edge computing (Sec. 8), the deterministic-start web fix (Sec. 5.1's
// citation [90]), SA energy with RRC_INACTIVE (Appendix B), indoor
// micro-cells (Sec. 3.3) and hand-off trigger tuning (Sec. 3.4).
#include <ostream>

#include "app/iperf.h"
#include "app/multipath.h"
#include "app/video.h"
#include "app/web.h"
#include "core/experiment.h"
#include "core/paper.h"
#include "core/scenario.h"
#include "energy/rrc_power_machine.h"
#include "energy/traffic_trace.h"
#include "geo/route.h"
#include "measure/table.h"
#include "radio/mcs.h"
#include "ran/handoff.h"
#include "ran/prb_scheduler.h"

namespace fiveg::core {
namespace {

using measure::TextTable;
using sim::kSecond;

void run_ext_codel_aqm(const ExperimentContext& ctx) {
  TextTable t("Extension — drop-tail vs CoDel at the metro bottleneck",
              {"queue", "Cubic util", "BBR util", "Cubic SRTT (ms)"});
  for (const bool codel : {false, true}) {
    double util[2] = {0, 0};
    double cubic_srtt = 0;
    for (const tcp::CcAlgo algo :
         {tcp::CcAlgo::kCubic, tcp::CcAlgo::kBbr}) {
      // Built by hand rather than through Testbed (whose
      // bottleneck_qdisc option could set CoDel): Testbed forks its own
      // RNG substreams, so moving onto it would change this experiment's
      // draws.
      sim::Simulator simr2;
      net::CellularPathOptions popt;
      popt.ran.bitrate_bps = paper::kNrUdpDayMbps * 1e6;
      auto hops = make_cellular_path(popt, sim::Rng(ctx.seed));
      hops[net::kBottleneckHopIndex].qdisc.kind =
          codel ? net::QdiscKind::kCoDel : net::QdiscKind::kDropTail;
      std::reverse(hops.begin(), hops.end());  // downlink orientation
      net::PathNetwork path(&simr2, std::move(hops));
      app::PathFanout fanout(&path);
      net::CrossTraffic cross(
          &simr2,
          &path.forward_link(path.hop_count() - 1 - net::kBottleneckHopIndex),
          /*mean_on_s=*/0.06, sim::Rng(ctx.seed).fork("x"));
      cross.start(30 * kSecond);
      tcp::TcpConfig cfg;
      cfg.algo = algo;
      app::TcpSession session(&simr2, &path, &fanout, cfg);
      session.sender().start_bulk();
      simr2.run_until(25 * kSecond);
      util[algo == tcp::CcAlgo::kBbr ? 1 : 0] =
          session.receiver().mean_goodput_bps(5 * kSecond, 25 * kSecond) /
          (paper::kNrUdpDayMbps * 1e6);
      if (algo == tcp::CcAlgo::kCubic) {
        cubic_srtt = sim::to_millis(session.sender().rtt().smoothed_rtt());
      }
    }
    t.add_row({codel ? "CoDel (5 ms target)" : "drop-tail (1.6 MB)",
               TextTable::pct(util[0]), TextTable::pct(util[1]),
               TextTable::num(cubic_srtt, 1)});
  }
  t.print(*ctx.out);
  *ctx.out << "finding: against *transient* ambient bursts CoDel mostly "
              "adds early drops — it trims queueing delay but does not "
              "rescue loss-based TCP. That backs the paper's preferred "
              "fixes (buffer growth, pacing-based CC) over AQM for this "
              "particular anomaly.\n\n";
}

void run_ext_mec(const ExperimentContext& ctx) {
  TextTable t("Extension — edge vs cloud placement over 5G",
              {"placement", "RTT (ms)", "8 MB fetch (s)"});
  struct Place {
    const char* name;
    double km;
    int hops;
  };
  for (const Place place : {Place{"MEC edge (behind gNB)", 2.0, 1},
                            Place{"metro cloud", 400.0, 6},
                            Place{"remote cloud", 2000.0, 9}}) {
    sim::Simulator simr;
    TestbedOptions opt;
    opt.server_distance_km = place.km;
    opt.wired_hops = place.hops;
    opt.cross_traffic = false;
    Testbed bed(&simr, opt, ctx.seed);
    // RTT via probe.
    measure::RunningStats rtt;
    for (int i = 0; i < 10; ++i) {
      simr.schedule_in(i * 50 * sim::kMillisecond, [&] {
        bed.path().probe(bed.hop_count(), [&](sim::Time x) {
          rtt.add(sim::to_millis(x));
        });
      });
    }
    simr.run_until(2 * kSecond);
    // 8 MB fetch over BBR.
    app::TcpSession session(&simr, &bed.path(), &bed.fanout(),
                            tcp::TcpConfig{.algo = tcp::CcAlgo::kBbr});
    const sim::Time start = simr.now();
    sim::Time done_at = 0;
    session.sender().send_bytes(8 << 20, [&] { done_at = simr.now(); });
    simr.run_until(start + 60 * kSecond);
    t.add_row({place.name, TextTable::num(rtt.mean(), 1),
               TextTable::num(sim::to_seconds(done_at - start), 2)});
  }
  t.print(*ctx.out);
}

void run_ext_faststart_web(const ExperimentContext& ctx) {
  TextTable t("Extension — BBR vs seeded-BBR page downloads on 5G",
              {"page", "stock download (s)", "seeded download (s)",
               "gain"});
  for (const double mb : {1.0, 4.0, 16.0}) {
    const app::WebPage page = app::image_page(mb);
    double dl[2];
    for (const bool seeded : {false, true}) {
      sim::Simulator simr;
      TestbedOptions opt;
      opt.server_distance_km = 400.0;
      Testbed bed(&simr, opt, ctx.seed);
      bed.start_cross_traffic(60 * kSecond);
      tcp::TcpConfig cfg;
      cfg.algo = tcp::CcAlgo::kBbr;
      if (seeded) {
        // The radio layer knows its own achievable rate and RTT.
        cfg.seed.rate_bps = bed.ran_rate_bps();
        cfg.seed.rtt = sim::from_millis(20);
      }
      app::WebBrowser browser(&simr, &bed.path(), &bed.fanout(), cfg);
      app::PltResult result;
      browser.load(page, [&](app::PltResult r) { result = r; });
      simr.run_until(60 * kSecond);
      dl[seeded ? 1 : 0] = result.download_s;
    }
    t.add_row({TextTable::num(mb, 0) + " MB", TextTable::num(dl[0], 2),
               TextTable::num(dl[1], 2),
               TextTable::pct(1.0 - dl[1] / dl[0])});
  }
  t.print(*ctx.out);
}

void run_ext_sa_energy(const ExperimentContext& ctx) {
  const energy::RrcPowerMachine machine;
  sim::Rng rng = sim::Rng(ctx.seed).fork("sa");
  TextTable t("Extension — NSA vs SA radio energy (J)",
              {"workload", "NR NSA", "NR SA", "saving"});
  struct W {
    const char* name;
    energy::TrafficTrace trace;
  };
  const W workloads[] = {
      {"Web", energy::web_browsing_trace(rng.fork("w"))},
      {"Video", energy::video_telephony_trace(rng.fork("v"))},
      {"File", energy::file_transfer_trace(1'000'000'000)},
  };
  for (const W& w : workloads) {
    const double nsa =
        machine.replay(w.trace, energy::RadioModel::kNrNsa).radio_joules;
    const double sa =
        machine.replay(w.trace, energy::RadioModel::kNrSa).radio_joules;
    t.add_row({w.name, TextTable::num(nsa, 1), TextTable::num(sa, 1),
               TextTable::pct(1.0 - sa / nsa)});
    ctx.metric(std::string("sa_saving_") + w.name, 1.0 - sa / nsa, "fraction");
  }
  t.print(*ctx.out);
}

void run_ext_indoor_microcell(const ExperimentContext& ctx) {
  const Scenario sc(ctx.seed);
  const auto& campus = sc.campus();
  const geo::Building& bld = campus.buildings().at(3);
  const geo::Point inside = bld.footprint.center();

  // Macro-only: the stock deployment's indoor service.
  const double macro_rate =
      sc.deployment().dl_bitrate_bps(radio::Rat::kNr, inside);

  // Macro + micro: a low-power omni cell mounted inside the building
  // (CPE/femto class: ~0.1 W, small antenna).
  ran::Cell micro;
  micro.pci = 90;
  micro.site_id = 99;
  micro.rat = radio::Rat::kNr;
  micro.site = {inside,
                radio::SectorAntenna(0.0, /*beamwidth_deg=*/360.0,
                                     /*max_gain_dbi=*/4.0,
                                     /*front_back_db=*/0.0)};
  radio::CarrierConfig micro_carrier = radio::nr3500();
  micro_carrier.tx_re_power_dbm = -18.0;  // femto EIRP

  measure::RunningStats macro_stats, micro_stats;
  sim::Rng rng = sim::Rng(ctx.seed).fork("micro");
  for (int i = 0; i < 60; ++i) {
    const geo::Point p{
        rng.uniform(bld.footprint.min.x + 1, bld.footprint.max.x - 1),
        rng.uniform(bld.footprint.min.y + 1, bld.footprint.max.y - 1)};
    macro_stats.add(sc.deployment().dl_bitrate_bps(radio::Rat::kNr, p));
    const auto m = ran::best_cell(sc.deployment().env(), micro_carrier, {micro},
                                  p);
    const double micro_rate =
        m.in_coverage() ? radio::dl_bitrate_bps(micro_carrier, m.sinr_db)
                        : 0.0;
    micro_stats.add(std::max(
        micro_rate, sc.deployment().dl_bitrate_bps(radio::Rat::kNr, p)));
  }
  TextTable t("Extension — indoor micro-cell (one building)",
              {"deployment", "mean indoor DL (Mbps)", "min (Mbps)"});
  t.add_row({"macro only", TextTable::num(macro_stats.mean() / 1e6, 0),
             TextTable::num(macro_stats.min() / 1e6, 0)});
  t.add_row({"macro + indoor micro",
             TextTable::num(micro_stats.mean() / 1e6, 0),
             TextTable::num(micro_stats.min() / 1e6, 0)});
  t.print(*ctx.out);
  *ctx.out << "centre-of-building macro rate: "
           << TextTable::num(macro_rate / 1e6, 0)
           << " Mbps — the paper prices a CPE at $360 vs $28.8k for a "
              "macro gNB\n\n";
}

void run_ext_ho_tuning(const ExperimentContext& ctx) {
  TextTable t("Extension — A3 trigger tuning",
              {"hysteresis (dB)", "TTT (ms)", "hand-offs",
               ">= 3 dB gain"});
  const Scenario sc(ctx.seed);
  for (const double hys : {1.0, 3.0, 6.0}) {
    for (const double ttt_ms : {100.0, 324.0, 640.0}) {
      sim::Simulator simr;
      ran::MobilityConfig cfg;
      cfg.speed_mps = 2.2;
      cfg.a3.hysteresis_db = hys;
      cfg.a3.time_to_trigger = sim::from_millis(ttt_ms);
      ran::HandoffEngine engine(&simr, &sc.deployment(), cfg,
                                sim::Rng(ctx.seed).fork("tune"));
      engine.start(geo::make_survey_route(sc.campus(), 80.0));
      simr.run_until(30 * sim::kMinute);
      std::size_t good = 0, counted = 0;
      for (const auto& r : engine.records()) {
        if (!r.after_recorded) continue;
        ++counted;
        good += (r.quality_after_db - r.quality_before_db) >= 3.0;
      }
      t.add_row({TextTable::num(hys, 0), TextTable::num(ttt_ms, 0),
                 std::to_string(engine.records().size()),
                 counted ? TextTable::pct(static_cast<double>(good) /
                                          counted)
                         : "-"});
    }
  }
  t.print(*ctx.out);
  *ctx.out << "the ISP's 3 dB / 324 ms setting trades hand-off count "
              "against the ~25% that degrade quality (Fig. 5)\n\n";
}

void run_ext_multipath(const ExperimentContext& ctx) {
  // (a) Clean aggregation: 200 MB over 5G alone vs 5G+4G striped.
  const auto single_time = [&](sim::Time outage_start, sim::Time outage_len) {
    sim::Simulator simr;
    bool blocked = false;
    TestbedOptions opt;
    opt.cross_traffic = false;
    opt.ran_blocked_fn = [&blocked] { return blocked; };
    Testbed bed(&simr, opt, ctx.seed);
    app::TcpSession s(&simr, &bed.path(), &bed.fanout(),
                      tcp::TcpConfig{.algo = tcp::CcAlgo::kBbr});
    sim::Time done = 0;
    s.sender().send_bytes(200 << 20, [&] { done = simr.now(); });
    if (outage_len > 0) {
      simr.schedule_at(outage_start, [&blocked] { blocked = true; });
      simr.schedule_at(outage_start + outage_len,
                       [&blocked] { blocked = false; });
    }
    simr.run_until(120 * kSecond);
    return sim::to_seconds(done);
  };
  const auto multi = [&](sim::Time outage_start, sim::Time outage_len) {
    sim::Simulator simr;
    bool blocked = false;
    TestbedOptions nr_opt;
    nr_opt.cross_traffic = false;
    nr_opt.ran_blocked_fn = [&blocked] { return blocked; };
    Testbed nr_bed(&simr, nr_opt, ctx.seed);
    TestbedOptions lte_opt;
    lte_opt.rat = radio::Rat::kLte;
    lte_opt.cross_traffic = false;
    Testbed lte_bed(&simr, lte_opt, ctx.seed + 1);
    app::MultipathTransfer::Config mcfg;
    mcfg.transport.algo = tcp::CcAlgo::kBbr;
    app::MultipathTransfer mp(&simr, &nr_bed.path(), &nr_bed.fanout(),
                              &lte_bed.path(), &lte_bed.fanout(), mcfg);
    sim::Time done = 0;
    mp.transfer(200 << 20, [&] { done = simr.now(); });
    if (outage_len > 0) {
      simr.schedule_at(outage_start, [&blocked] { blocked = true; });
      simr.schedule_at(outage_start + outage_len,
                       [&blocked] { blocked = false; });
    }
    simr.run_until(120 * kSecond);
    return std::make_tuple(sim::to_seconds(done), mp.bytes_via_a(),
                           mp.bytes_via_b());
  };

  TextTable t("Extension — MPTCP-style 4G+5G striping (200 MB transfer)",
              {"scenario", "5G only (s)", "5G+4G (s)", "split 5G/4G"});
  {
    const double single = single_time(0, 0);
    const auto [both, via5, via4] = multi(0, 0);
    t.add_row({"clean", TextTable::num(single, 1),
               TextTable::num(both, 1),
               TextTable::num(static_cast<double>(via5) / (1 << 20), 0) +
                   " / " +
                   TextTable::num(static_cast<double>(via4) / (1 << 20), 0) +
                   " MB"});
  }
  {
    // A 2 s mid-transfer 5G outage (a rough stand-in for a hand-off
    // storm / coverage gap).
    const double single = single_time(2 * kSecond, 2 * kSecond);
    const auto [both, via5, via4] = multi(2 * kSecond, 2 * kSecond);
    t.add_row({"2 s 5G outage", TextTable::num(single, 1),
               TextTable::num(both, 1),
               TextTable::num(static_cast<double>(via5) / (1 << 20), 0) +
                   " / " +
                   TextTable::num(static_cast<double>(via4) / (1 << 20), 0) +
                   " MB"});
  }
  t.print(*ctx.out);
}

void run_ext_abr_video(const ExperimentContext& ctx) {
  TextTable t("Extension — ABR on a 4G uplink (5.7K dynamic call, 30 s)",
              {"codec", "p90 frame delay (s)", "freezes", "downshifts",
               "frames reduced"});
  for (const bool abr : {false, true}) {
    sim::Simulator simr;
    TestbedOptions opt;
    opt.rat = radio::Rat::kLte;
    opt.direction = Direction::kUplink;
    opt.cross_traffic = false;
    Testbed bed(&simr, opt, ctx.seed);
    app::VideoConfig cfg;
    cfg.resolution = app::Resolution::k5p7K;
    cfg.dynamic_scene = true;
    cfg.adaptive_bitrate = abr;
    cfg.transport.algo = tcp::CcAlgo::kBbr;
    app::VideoTelephony call(&simr, &bed.path(), &bed.fanout(), cfg,
                             sim::Rng(ctx.seed).fork("abr"));
    call.start(30 * kSecond);
    simr.run_until(120 * kSecond);
    const app::VideoStats s = call.stats();
    t.add_row({abr ? "adaptive" : "fixed 5.7K",
               TextTable::num(s.frame_delay_s.empty()
                                  ? 0
                                  : s.frame_delay_s.quantile(0.9),
                              2),
               std::to_string(s.freeze_events),
               std::to_string(s.downshifts),
               std::to_string(s.frames_at_reduced_res)});
  }
  t.print(*ctx.out);
}

void run_ext_densification(const ExperimentContext& ctx) {
  const geo::CampusMap campus =
      geo::make_campus(sim::Rng(ctx.seed).fork("campus"));
  TextTable t("Extension — densifying the 5G deployment",
              {"gNB sites", "NR cells", "coverage holes", "mean RSRP"});
  for (const int sites : {3, 6, 9, 13}) {
    const ran::Deployment dep = ran::make_deployment(
        &campus, sim::Rng(ctx.seed).fork("deployment"), sites);
    sim::Rng rng = sim::Rng(ctx.seed).fork("dense-sample");
    measure::RunningStats rsrp;
    int holes = 0;
    const int n = 1500;
    for (int i = 0; i < n; ++i) {
      const geo::Point p = campus.random_outdoor_point(rng);
      const auto m = dep.best(radio::Rat::kNr, p);
      rsrp.add(m.rsrp_dbm);
      holes += !m.in_coverage();
    }
    t.add_row({std::to_string(sites),
               std::to_string(dep.cells(radio::Rat::kNr).size()),
               TextTable::pct(static_cast<double>(holes) / n),
               TextTable::num(rsrp.mean(), 1)});
    ctx.metric_point("hole_fraction_vs_sites", sites,
                     static_cast<double>(holes) / n, "fraction");
  }
  t.print(*ctx.out);
  *ctx.out << "the stock 6-site deployment reproduces the paper's 8% "
              "holes; doubling the sites pushes holes toward the 4G level\n\n";
}

void run_ext_cell_load(const ExperimentContext& ctx) {
  TextTable t("Extension — PRB contention on one cell",
              {"competing users", "4G share", "4G rate (Mbps)",
               "5G share", "5G rate (Mbps)"});
  sim::Rng rng = sim::Rng(ctx.seed).fork("load");
  for (const int users : {0, 1, 2, 4, 8}) {
    const ran::PrbScheduler lte_sched(radio::lte1800(), users);
    const ran::PrbScheduler nr_sched(radio::nr3500(), users);
    measure::RunningStats lte_share, nr_share;
    for (int i = 0; i < 500; ++i) {
      lte_share.add(lte_sched.grant_fraction(rng));
      nr_share.add(nr_sched.grant_fraction(rng));
    }
    // At a good operating point (25 dB SINR).
    const double lte_rate =
        radio::dl_bitrate_bps(radio::lte1800(), 25.0, lte_share.mean());
    const double nr_rate =
        radio::dl_bitrate_bps(radio::nr3500(), 25.0, nr_share.mean());
    t.add_row({std::to_string(users), TextTable::pct(lte_share.mean()),
               TextTable::num(lte_rate / 1e6, 0),
               TextTable::pct(nr_share.mean()),
               TextTable::num(nr_rate / 1e6, 0)});
    ctx.metric_point("lte_rate_vs_users", users, lte_rate / 1e6, "Mbps");
    ctx.metric_point("nr_rate_vs_users", users, nr_rate / 1e6, "Mbps");
  }
  t.print(*ctx.out);
  *ctx.out << "the paper's daytime 4G baseline (130 Mbps) matches ~1 "
              "competing user; its 5G network was effectively empty\n\n";
}

}  // namespace

void register_extension_experiments(ExperimentRegistry& reg) {
  reg.add({"ext_codel_aqm", "Sec. 4.2 (bufferbloat trade-off)",
           "CoDel at the wireline bottleneck vs drop-tail: loss-based TCP "
           "utilisation and queueing delay under 5G load",
           /*smoke=*/false,
           run_ext_codel_aqm});
  reg.add({"ext_mec", "Sec. 8 (edge computing)",
           "Mobile edge computing: RTT and short-transfer time, edge vs cloud "
           "server",
           /*smoke=*/false,
           run_ext_mec});
  reg.add({"ext_faststart_web",
           "Sec. 5.1 (deterministic bandwidth estimation, ref [90])",
           "Replacing slow-start probing with a radio-layer bandwidth hint: "
           "web downloads on 5G",
           /*smoke=*/false,
           run_ext_faststart_web});
  reg.add({"ext_sa_energy", "Appendix B (RRC_INACTIVE / SA state machine)",
           "Energy of the future SA state machine (direct promotion, single "
           "tail, RRC_INACTIVE) vs NSA",
           /*smoke=*/true,
           run_ext_sa_energy});
  reg.add({"ext_indoor_microcell", "Sec. 3.3 (micro-cells for indoor coverage)",
           "Adding an indoor 5G micro-cell to one building: indoor bit-rate "
           "with macro-only vs macro+micro",
           /*smoke=*/false,
           run_ext_indoor_microcell});
  reg.add({"ext_ho_tuning", "Sec. 3.4 (a more intelligent hand-off strategy)",
           "A3 hysteresis / time-to-trigger sweep: hand-off count vs the "
           "fraction that actually improve quality",
           /*smoke=*/false,
           run_ext_ho_tuning});
  reg.add({"ext_multipath",
           "Sec. 6.3 / Sec. 8 (4G/5G coexistence as an MPTCP use case)",
           "MPTCP-style 4G+5G striping: aggregate throughput and hand-off "
           "outage masking",
           /*smoke=*/false,
           run_ext_multipath});
  reg.add({"ext_abr_video", "Sec. 5.2 (codec/transport coordination, ref [96])",
           "Adaptive bit-rate telephony: a 5.7K call on an uplink that cannot "
           "carry it, with and without resolution adaptation",
           /*smoke=*/false,
           run_ext_abr_video});
  reg.add({"ext_densification",
           "Sec. 8 (holes can be eliminated as gNB density increases)",
           "Coverage holes vs gNB count on the same campus", /*smoke=*/true,
           run_ext_densification});
  reg.add({"ext_cell_load",
           "Sec. 4.1 (PRB sharing: why 4G day/night differ and 5G does not)",
           "Per-user bit-rate vs competing users on one cell", /*smoke=*/true,
           run_ext_cell_load});
}

}  // namespace fiveg::core
