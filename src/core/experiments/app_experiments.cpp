// Application QoE experiments: Fig. 16/17 (web page loading), Fig. 18/19
// (panoramic video throughput and fluctuation), Fig. 20 (frame delay) and
// the Sec. 8 "can 5G replace DSL" estimate.
#include <ostream>

#include "app/iperf.h"
#include "app/video.h"
#include "app/web.h"
#include "core/experiment.h"
#include "core/paper.h"
#include "core/scenario.h"
#include "measure/plot.h"
#include "measure/table.h"

namespace fiveg::core {
namespace {

using measure::TextTable;
using sim::kSecond;

app::PltResult load_page(radio::Rat rat, const app::WebPage& page,
                         std::uint64_t seed) {
  sim::Simulator simr;
  TestbedOptions opt;
  opt.rat = rat;
  // The paper's web servers sit behind real Internet paths, not a metro
  // CDN: a few hundred km of wireline RTT is what makes page loads
  // transient-bound on both RATs.
  opt.server_distance_km = 400.0;
  Testbed bed(&simr, opt, seed);
  bed.start_cross_traffic(60 * kSecond);
  tcp::TcpConfig cfg;
  cfg.algo = tcp::CcAlgo::kBbr;  // the paper uses HTTP/2 + BBR
  app::WebBrowser browser(&simr, &bed.path(), &bed.fanout(), cfg);
  app::PltResult result;
  browser.load(page, [&](app::PltResult r) { result = r; });
  simr.run_until(60 * kSecond);
  return result;
}

void run_fig16_17_web(const ExperimentContext& ctx) {
  TextTable t("Fig. 16 — PLT by page category (seconds)",
              {"category", "5G download", "5G render", "5G total",
               "4G download", "4G render", "4G total"});
  double plt5 = 0, plt4 = 0, dl5 = 0, dl4 = 0;
  for (const app::WebPage& page : app::paper_pages()) {
    const auto nr = load_page(radio::Rat::kNr, page, ctx.seed);
    const auto lte = load_page(radio::Rat::kLte, page, ctx.seed);
    plt5 += nr.total_s();
    plt4 += lte.total_s();
    dl5 += nr.download_s;
    dl4 += lte.download_s;
    t.add_row({page.category, TextTable::num(nr.download_s, 2),
               TextTable::num(nr.render_s, 2),
               TextTable::num(nr.total_s(), 2),
               TextTable::num(lte.download_s, 2),
               TextTable::num(lte.render_s, 2),
               TextTable::num(lte.total_s(), 2)});
  }
  t.print(*ctx.out);
  TextTable s("Fig. 16 summary", {"metric", "measured", "paper"});
  s.add_row({"5G total-PLT reduction", TextTable::pct(1.0 - plt5 / plt4),
             TextTable::pct(paper::kPltReduction)});
  s.add_row({"5G download-only reduction", TextTable::pct(1.0 - dl5 / dl4),
             TextTable::pct(paper::kDownloadReduction)});
  s.print(*ctx.out);
  ctx.metric("plt_reduction", 1.0 - plt5 / plt4, "fraction");
  ctx.metric("download_reduction", 1.0 - dl5 / dl4, "fraction");

  TextTable t17("Fig. 17 — PLT by image size (seconds)",
                {"size (MB)", "5G download", "5G total", "4G download",
                 "4G total"});
  for (const double mb : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const app::WebPage page = app::image_page(mb);
    const auto nr = load_page(radio::Rat::kNr, page, ctx.seed + 1);
    const auto lte = load_page(radio::Rat::kLte, page, ctx.seed + 1);
    t17.add_row({TextTable::num(mb, 0), TextTable::num(nr.download_s, 2),
                 TextTable::num(nr.total_s(), 2),
                 TextTable::num(lte.download_s, 2),
                 TextTable::num(lte.total_s(), 2)});
  }
  t17.print(*ctx.out);
}

app::VideoStats run_video(radio::Rat rat, app::Resolution res, bool dynamic,
                          std::uint64_t seed,
                          sim::Time duration = 30 * kSecond) {
  sim::Simulator simr;
  TestbedOptions opt;
  opt.rat = rat;
  opt.direction = Direction::kUplink;  // telephony pushes uplink
  opt.cross_traffic = false;           // the UL bottleneck is the RAN
  Testbed bed(&simr, opt, seed);
  app::VideoConfig cfg;
  cfg.resolution = res;
  cfg.dynamic_scene = dynamic;
  cfg.transport.algo = tcp::CcAlgo::kBbr;
  app::VideoTelephony video(&simr, &bed.path(), &bed.fanout(), cfg,
                            sim::Rng(seed).fork("video"));
  video.start(duration);
  simr.run_until(duration + 30 * kSecond);
  return video.stats();
}

void run_fig18_19_video_tput(const ExperimentContext& ctx) {
  TextTable t("Fig. 18 — received video throughput (Mbps)",
              {"resolution", "4G static", "4G dynamic", "5G static",
               "5G dynamic", "nominal"});
  using app::Resolution;
  for (const Resolution res :
       {Resolution::k720p, Resolution::k1080p, Resolution::k4K,
        Resolution::k5p7K}) {
    const auto cell = [&](radio::Rat rat, bool dyn) {
      return TextTable::num(
          run_video(rat, res, dyn, ctx.seed).mean_received_throughput_bps /
              1e6,
          0);
    };
    t.add_row({app::to_string(res), cell(radio::Rat::kLte, false),
               cell(radio::Rat::kLte, true), cell(radio::Rat::kNr, false),
               cell(radio::Rat::kNr, true),
               TextTable::num(app::nominal_bitrate_bps(res) / 1e6, 0)});
  }
  t.print(*ctx.out);

  // Fig. 19: 5.7K on 5G, static vs dynamic, freezes from UL overflow.
  const auto st = run_video(radio::Rat::kNr, app::Resolution::k5p7K, false,
                            ctx.seed + 2);
  const auto dy = run_video(radio::Rat::kNr, app::Resolution::k5p7K, true,
                            ctx.seed + 2);
  {
    // Received-throughput fluctuation chart (Mbps over 1 s windows).
    sim::Simulator simr;
    TestbedOptions opt;
    opt.direction = Direction::kUplink;
    opt.cross_traffic = false;
    Testbed bed(&simr, opt, ctx.seed + 2);
    app::VideoConfig cfg;
    cfg.resolution = app::Resolution::k5p7K;
    cfg.dynamic_scene = true;
    cfg.transport.algo = tcp::CcAlgo::kBbr;
    app::VideoTelephony video(&simr, &bed.path(), &bed.fanout(), cfg,
                              sim::Rng(ctx.seed + 2).fork("video"));
    video.start(30 * kSecond);
    simr.run_until(60 * kSecond);
    std::vector<measure::TimePoint> mbps;
    for (const auto& w : video.received_bytes_log().window_sums(
             0, 30 * kSecond, kSecond)) {
      mbps.push_back({w.at, w.value / 1e6});
    }
    measure::PlotOptions popt;
    popt.title =
        "Fig. 19 — received 5.7K dynamic-scene throughput on 5G (Mbps)";
    popt.x_label = "s";
    *ctx.out << measure::line_chart(mbps, popt) << "\n";
  }
  TextTable f("Fig. 19 — 5.7K over 5G, 30 s session",
              {"scene", "mean Mbps", "p95/p5 frame-size spread",
               "freeze events", "paper"});
  const auto spread = [](const app::VideoStats& s) {
    return s.frame_bytes.quantile(0.95) / s.frame_bytes.quantile(0.05);
  };
  f.add_row({"static", TextTable::num(st.mean_received_throughput_bps / 1e6, 0),
             TextTable::num(spread(st), 1), std::to_string(st.freeze_events),
             "~0"});
  f.add_row({"dynamic",
             TextTable::num(dy.mean_received_throughput_bps / 1e6, 0),
             TextTable::num(spread(dy), 1), std::to_string(dy.freeze_events),
             std::to_string(paper::kFreezeEvents5p7K)});
  f.print(*ctx.out);
  ctx.metric("static_5p7k_mbps", st.mean_received_throughput_bps / 1e6, "Mbps");
  ctx.metric("dynamic_5p7k_mbps", dy.mean_received_throughput_bps / 1e6,
             "Mbps");
  ctx.metric("dynamic_freeze_events", static_cast<double>(dy.freeze_events),
             "count");
}

void run_fig20_frame_delay(const ExperimentContext& ctx) {
  const auto nr =
      run_video(radio::Rat::kNr, app::Resolution::k4K, false, ctx.seed + 3);
  const auto lte =
      run_video(radio::Rat::kLte, app::Resolution::k4K, false, ctx.seed + 3);

  TextTable t("Fig. 20 — 4K telephony frame delay (s)",
              {"network", "median", "p90", "max", "paper"});
  t.add_row({"5G", TextTable::num(nr.frame_delay_s.quantile(0.5), 2),
             TextTable::num(nr.frame_delay_s.quantile(0.9), 2),
             TextTable::num(nr.frame_delay_s.max(), 2),
             "~" + TextTable::num(paper::kFrameDelay5GMs / 1000, 2)});
  t.add_row({"4G", TextTable::num(lte.frame_delay_s.quantile(0.5), 2),
             TextTable::num(lte.frame_delay_s.quantile(0.9), 2),
             TextTable::num(lte.frame_delay_s.max(), 2),
             "1.2-1.6 with congestion spikes"});
  t.print(*ctx.out);

  const double proc_ms = sim::to_millis(app::kCaptureStitch) +
                         sim::to_millis(app::kEncode) +
                         sim::to_millis(app::kDecodeRender);
  const double net_ms = nr.frame_delay_s.quantile(0.5) * 1000.0 - proc_ms -
                        sim::to_millis(app::kRtmpRelay);
  *ctx.out << "processing " << TextTable::num(proc_ms, 0)
           << " ms vs network " << TextTable::num(net_ms, 0)
           << " ms -> processing/network = "
           << TextTable::num(proc_ms / std::max(net_ms, 1.0), 1)
           << "x (paper: ~10x; requirement is "
           << paper::kFrameDelayReqMs << " ms)\n\n";
  ctx.metric("nr_median_frame_delay_s", nr.frame_delay_s.quantile(0.5), "s");
  ctx.metric("processing_over_network", proc_ms / std::max(net_ms, 1.0),
             "ratio");
}

void run_dsl_replacement(const ExperimentContext& ctx) {
  // A CPE parked at a favourable indoor spot (near a window) gets
  // ~650 Mbps; 50 houses share a 3-sector gNB.
  sim::Simulator simr;
  TestbedOptions opt;
  opt.rat = radio::Rat::kNr;
  opt.ran_rate_bps = paper::kCpeThroughputMbps * 1e6;
  opt.cross_traffic = false;
  Testbed bed(&simr, opt, ctx.seed);
  app::UdpTest test(&simr, &bed.path(), &bed.fanout(),
                    paper::kCpeThroughputMbps * 1e6);
  test.start(5 * kSecond);
  simr.run_until(6 * kSecond);
  const double cpe_mbps =
      test.result(kSecond, 5 * kSecond).mean_throughput_bps / 1e6;

  const int houses_per_gnb = 50;
  const int sectors = 3;
  const double per_house = cpe_mbps * sectors / houses_per_gnb;
  TextTable t("Sec. 8 — 5G as a DSL replacement",
              {"metric", "measured", "paper"});
  t.add_row({"CPE throughput (Mbps)", TextTable::num(cpe_mbps, 0),
             TextTable::num(paper::kCpeThroughputMbps, 0)});
  t.add_row({"per-house share (Mbps)", TextTable::num(per_house, 0),
             TextTable::num(paper::kPerHouseMbps, 0)});
  t.add_row({"US DSL average (Mbps)", TextTable::num(paper::kDslMbps, 0),
             TextTable::num(paper::kDslMbps, 0)});
  t.print(*ctx.out);
  ctx.metric("per_house_mbps", per_house, "Mbps");
}

}  // namespace

void register_app_experiments(ExperimentRegistry& reg) {
  reg.add({"fig16_17_web", "Figures 16 and 17",
           "Page load time by category and image size: rendering dominates, "
           "so 5G buys ~5% despite 5x the bandwidth",
           /*smoke=*/false,
           run_fig16_17_web});
  reg.add({"fig18_19_video_tput", "Figures 18 and 19",
           "Uplink video throughput by resolution/scene: 4G cannot carry "
           "5.7K; dynamic scenes overflow even 5G occasionally",
           /*smoke=*/false,
           run_fig18_19_video_tput});
  reg.add({"fig20_frame_delay", "Figure 20",
           "End-to-end 4K frame delay: processing (~650 ms) dwarfs "
           "transmission (~66 ms) even on 5G",
           /*smoke=*/false,
           run_fig20_frame_delay});
  reg.add({"dsl_replacement", "Section 8 (CPE/DSL)",
           "Can 5G replace DSL? Per-house share of a residential gNB",
           /*smoke=*/true, run_dsl_replacement});
}

}  // namespace fiveg::core
