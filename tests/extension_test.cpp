// Tests for the extension features: the CoDel AQM, the deterministic-start
// (seeded) BBR, and the SA energy model with RRC_INACTIVE.
#include <gtest/gtest.h>

#include "app/iperf.h"
#include "app/multipath.h"
#include "app/video.h"
#include "energy/rrc_power_machine.h"
#include "energy/traffic_trace.h"
#include "geo/campus.h"
#include "net/aqm.h"
#include "net/link.h"
#include "net/path.h"
#include "ran/deployment.h"
#include "sim/simulator.h"
#include "tcp/cc_algorithms.h"
#include "tcp/tcp_receiver.h"
#include "tcp/tcp_sender.h"

namespace fiveg {
namespace {

using sim::from_millis;
using sim::kSecond;

net::Packet packet(std::uint32_t bytes = 1500) {
  net::Packet p;
  p.size_bytes = bytes;
  return p;
}

// The buffer the CoDel unit tests run over (4 MiB: never the limit).
constexpr std::uint64_t kCoDelBuffer = 4 * 1024 * 1024;

TEST(CoDelTest, PassesThroughWhenUncongested) {
  net::CoDelQueue q({}, kCoDelBuffer);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.push(packet(), i * from_millis(1)));
    // Dequeued almost immediately: sojourn < target, no drops.
    const auto p = q.pop(i * from_millis(1) + from_millis(1));
    ASSERT_TRUE(p.has_value());
  }
  EXPECT_EQ(q.drops(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(CoDelTest, DropsWhenSojournExceedsTargetForAnInterval) {
  net::CoDelQueue q({}, kCoDelBuffer);
  // Fill, then drain slowly so sojourn stays far above the 5 ms target.
  sim::Time now = 0;
  for (int i = 0; i < 200; ++i) q.push(packet(), now);
  std::uint64_t delivered = 0;
  for (int i = 0; i < 200; ++i) {
    now += from_millis(20);  // sojourn grows to seconds
    if (q.pop(now)) ++delivered;
  }
  EXPECT_GT(q.drops(), 5u);
  EXPECT_LT(delivered, 200u);
}

TEST(CoDelTest, RespectsByteCapacity) {
  net::CoDelQueue q({}, 3000);
  EXPECT_TRUE(q.push(packet(), 0));
  EXPECT_TRUE(q.push(packet(), 0));
  EXPECT_FALSE(q.push(packet(), 0));
  EXPECT_EQ(q.drops(), 1u);
}

TEST(CoDelTest, RecoversAfterCongestionClears) {
  net::CoDelQueue q({}, kCoDelBuffer);
  sim::Time now = 0;
  for (int i = 0; i < 100; ++i) q.push(packet(), now);
  for (int i = 0; i < 100; ++i) {
    now += from_millis(15);
    (void)q.pop(now);
  }
  const auto drops_during = q.drops();
  EXPECT_GT(drops_during, 0u);
  // Fresh, uncongested traffic flows without further drops.
  now += kSecond;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(q.push(packet(), now));
    ASSERT_TRUE(q.pop(now + from_millis(1)).has_value());
    now += from_millis(10);
  }
  EXPECT_EQ(q.drops(), drops_during);
}

TEST(CoDelLinkTest, BoundsQueueingDelayUnderOverload) {
  // Same overload through drop-tail vs CoDel: CoDel keeps the standing
  // queue (and so the delay) an order of magnitude smaller.
  // A sustained 1.1x overload: CoDel's drop rate ramps until the standing
  // queue hovers near the 5 ms target; drop-tail just fills up. (CoDel
  // needs seconds to throttle non-reactive traffic — that is by design.)
  const auto standing_queue = [](bool use_codel) {
    sim::Simulator simr;
    net::Link::Config cfg;
    cfg.rate_bps = 50e6;
    cfg.queue_bytes = 2 << 20;
    cfg.qdisc.kind =
        use_codel ? net::QdiscKind::kCoDel : net::QdiscKind::kDropTail;
    net::CountingSink sink;
    net::Link link(&simr, cfg, &sink);
    const sim::Time gap = from_millis(1500.0 * 8 / 55e6 * 1000);  // 55 Mbps
    for (int i = 0; i < 140000; ++i) {
      simr.schedule_in(i * gap, [&] { link.send(packet()); });
    }
    simr.run_until(30 * kSecond);
    return link.queue_bytes();
  };
  const auto droptail = standing_queue(false);
  const auto codel = standing_queue(true);
  EXPECT_GT(droptail, std::uint64_t{1} << 20);  // filled to capacity
  EXPECT_LT(codel, droptail / 4);
}

TEST(SeededBbrTest, StartsAtFullRateInstantly) {
  tcp::CcSeed seed;
  seed.rate_bps = 500e6;
  seed.rtt = from_millis(20);
  tcp::BbrCc cc(seed);
  EXPECT_FALSE(cc.in_slow_start());
  EXPECT_NEAR(cc.btl_bw_bps(), 500e6, 1.0);
  // cwnd = 2 * BDP = 2 * 500e6/8 * 0.02 = 2.5 MB.
  EXPECT_NEAR(cc.cwnd_bytes(), 2.5e6, 0.1e6);
  EXPECT_GT(cc.pacing_rate_bps(), 400e6);
}

TEST(SeededBbrTest, UnseededStillProbes) {
  tcp::BbrCc cc;
  EXPECT_TRUE(cc.in_slow_start());
  EXPECT_DOUBLE_EQ(cc.btl_bw_bps(), 0.0);
}

TEST(SeededBbrTest, SeededTransferFinishesFasterOnCleanPath) {
  const auto fetch_time = [](bool seeded) {
    sim::Simulator simr;
    std::vector<net::Link::Config> hops(2);
    hops[0].rate_bps = 400e6;
    hops[0].prop_delay = from_millis(15);
    hops[0].queue_bytes = 2 << 20;
    hops[1].rate_bps = 10e9;
    hops[1].prop_delay = from_millis(15);
    net::PathNetwork path(&simr, hops);
    app::PathFanout fanout(&path);
    tcp::TcpConfig cfg;
    cfg.algo = tcp::CcAlgo::kBbr;
    if (seeded) {
      cfg.seed.rate_bps = 400e6;
      cfg.seed.rtt = from_millis(30);
    }
    app::TcpSession s(&simr, &path, &fanout, cfg);
    sim::Time done = 0;
    s.sender().send_bytes(8 << 20, [&] { done = simr.now(); });
    simr.run_until(60 * kSecond);
    return sim::to_seconds(done);
  };
  const double stock = fetch_time(false);
  const double seeded = fetch_time(true);
  EXPECT_LT(seeded, 0.75 * stock);
}

TEST(SaEnergyTest, SaBeatsNsaOnEveryWorkload) {
  const energy::RrcPowerMachine machine;
  for (const auto& trace :
       {energy::web_browsing_trace(sim::Rng(1)),
        energy::video_telephony_trace(sim::Rng(2)),
        energy::file_transfer_trace(500'000'000)}) {
    const double nsa =
        machine.replay(trace, energy::RadioModel::kNrNsa).radio_joules;
    const double sa =
        machine.replay(trace, energy::RadioModel::kNrSa).radio_joules;
    EXPECT_LT(sa, nsa);
    EXPECT_GT(sa, 0.3 * nsa);  // it is not magic, just a shorter ladder
  }
}

TEST(SaEnergyTest, SaTailIsHalfTheNsaTail) {
  const energy::RrcPowerMachine machine;
  const auto trace = energy::file_transfer_trace(10'000'000);
  const auto nsa = machine.replay(trace, energy::RadioModel::kNrNsa);
  const auto sa = machine.replay(trace, energy::RadioModel::kNrSa);
  const double nsa_tail = sim::to_seconds(nsa.duration - nsa.completion);
  const double sa_tail = sim::to_seconds(sa.duration - sa.completion);
  EXPECT_NEAR(sa_tail / nsa_tail, 0.5, 0.12);
}

TEST(SaEnergyTest, InactiveResumeMakesBurstsCheap) {
  // Bursts 5 s apart: NSA re-promotes through the full NSA ladder after
  // its tail; SA resumes from RRC_INACTIVE almost for free.
  energy::TrafficTrace bursts;
  for (int i = 0; i < 8; ++i) {
    bursts.push_back({i * 40 * kSecond, 2'000'000});
  }
  const energy::RrcPowerMachine machine;
  const auto nsa = machine.replay(bursts, energy::RadioModel::kNrNsa);
  const auto sa = machine.replay(bursts, energy::RadioModel::kNrSa);
  EXPECT_LT(sa.radio_joules, 0.8 * nsa.radio_joules);
  // SA also finishes each burst sooner (no 1.68 s promotion).
  EXPECT_LT(sa.completion, nsa.completion);
}

TEST(MultipathTest, SplitsProportionallyToPathRates) {
  sim::Simulator simr;
  const auto make = [&](double rate) {
    std::vector<net::Link::Config> hops(2);
    hops[0].rate_bps = rate;
    hops[0].prop_delay = from_millis(10);
    hops[0].queue_bytes = 1 << 20;
    hops[1].rate_bps = 10e9;
    hops[1].prop_delay = from_millis(10);
    return hops;
  };
  net::PathNetwork fast(&simr, make(160e6));
  net::PathNetwork slow(&simr, make(40e6));
  app::PathFanout fa(&fast), fb(&slow);
  app::MultipathTransfer::Config cfg;
  cfg.transport.algo = tcp::CcAlgo::kBbr;
  app::MultipathTransfer mp(&simr, &fast, &fa, &slow, &fb, cfg);
  bool done = false;
  mp.transfer(50 << 20, [&] { done = true; });
  simr.run_until(60 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(mp.finished());
  EXPECT_EQ(mp.bytes_via_a() + mp.bytes_via_b(),
            std::uint64_t{50} << 20);
  // 4:1 rate ratio -> roughly 4:1 byte split (pull scheduling).
  const double ratio = static_cast<double>(mp.bytes_via_a()) /
                       static_cast<double>(mp.bytes_via_b());
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 7.0);
}

TEST(MultipathTest, SurvivesSinglePathOutage) {
  sim::Simulator simr;
  bool blocked = false;
  std::vector<net::Link::Config> hops_a(2), hops_b(2);
  for (auto* hops : {&hops_a, &hops_b}) {
    (*hops)[0].rate_bps = 80e6;
    (*hops)[0].prop_delay = from_millis(10);
    (*hops)[0].queue_bytes = 1 << 20;
    (*hops)[1].rate_bps = 10e9;
    (*hops)[1].prop_delay = from_millis(10);
  }
  hops_a[0].blocked_fn = [&] { return blocked; };
  net::PathNetwork a(&simr, hops_a), b(&simr, hops_b);
  app::PathFanout fa(&a), fb(&b);
  app::MultipathTransfer::Config cfg;
  cfg.transport.algo = tcp::CcAlgo::kBbr;
  app::MultipathTransfer mp(&simr, &a, &fa, &b, &fb, cfg);
  bool done = false;
  mp.transfer(30 << 20, [&] { done = true; });
  // Path A dies for good after 1 s; the transfer must still finish via B.
  simr.schedule_at(kSecond, [&] { blocked = true; });
  simr.run_until(90 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_GT(mp.bytes_via_b(), mp.bytes_via_a());
}

TEST(AbrVideoTest, AdaptationPreventsBacklogCollapse) {
  const auto run = [](bool abr) {
    sim::Simulator simr;
    std::vector<net::Link::Config> hops(2);
    hops[0].rate_bps = 40e6;  // cannot carry 5.7K (80 Mbps)
    hops[0].prop_delay = from_millis(15);
    hops[0].queue_bytes = 1 << 20;
    hops[1].rate_bps = 10e9;
    hops[1].prop_delay = from_millis(5);
    net::PathNetwork path(&simr, hops);
    app::PathFanout fanout(&path);
    app::VideoConfig cfg;
    cfg.resolution = app::Resolution::k5p7K;
    cfg.adaptive_bitrate = abr;
    cfg.transport.algo = tcp::CcAlgo::kBbr;
    app::VideoTelephony call(&simr, &path, &fanout, cfg, sim::Rng(3));
    call.start(20 * kSecond);
    simr.run_until(80 * kSecond);
    return call.stats();
  };
  const app::VideoStats fixed = run(false);
  const app::VideoStats abr = run(true);
  EXPECT_GT(abr.downshifts, 0);
  EXPECT_GT(abr.frames_at_reduced_res, 0u);
  // Adaptation keeps tail latency an order of magnitude lower.
  EXPECT_LT(abr.frame_delay_s.quantile(0.9),
            0.5 * fixed.frame_delay_s.quantile(0.9));
  EXPECT_EQ(fixed.downshifts, 0);
}

TEST(DensificationTest, MoreSitesMeanFewerHoles) {
  const geo::CampusMap campus = geo::make_campus(sim::Rng(42).fork("campus"));
  double last_holes = 1.0;
  for (const int sites : {3, 6, 13}) {
    const ran::Deployment dep =
        ran::make_deployment(&campus, sim::Rng(42).fork("d"), sites);
    EXPECT_EQ(dep.site_count(radio::Rat::kNr), sites);
    sim::Rng rng(5);
    int holes = 0;
    const int n = 800;
    for (int i = 0; i < n; ++i) {
      holes += !dep.best(radio::Rat::kNr,
                         campus.random_outdoor_point(rng))
                    .in_coverage();
    }
    const double frac = static_cast<double>(holes) / n;
    EXPECT_LT(frac, last_holes + 0.02) << sites;  // monotone-ish
    last_holes = frac;
  }
  EXPECT_LT(last_holes, 0.06);  // 13 sites nearly close the holes
}

}  // namespace
}  // namespace fiveg
