// The chaos tier: cross-stack runs under injected faults, judged by
// fault::InvariantChecker against structural truths (conservation, TCP
// sanity, RRC legality, bounded serving gaps, physical energy accounting)
// instead of golden KPI values. Every test installs its fault runtime
// BEFORE constructing the simulator and the components under test — the
// injection points cache the runtime handle at construction.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "core/scenario.h"
#include "energy/rrc_power_machine.h"
#include "fault/fault.h"
#include "fault/invariants.h"
#include "geo/campus.h"
#include "geo/route.h"
#include "net/aqm.h"
#include "net/link.h"
#include "net/packet.h"
#include "net/path.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "ran/deployment.h"
#include "ran/handoff.h"
#include "ran/ue_cohort.h"
#include "sim/parsim.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "tcp/cc_algorithms.h"
#include "tcp/tcp_receiver.h"
#include "tcp/tcp_sender.h"

namespace fiveg {
namespace {

using sim::from_millis;
using sim::kSecond;

net::Packet make_packet(std::uint64_t seq, std::uint32_t bytes = 1500) {
  net::Packet p;
  p.flow_id = 1;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

fault::FaultSpec link_loss(sim::Time begin, sim::Time end, double loss) {
  fault::FaultSpec s;
  s.kind = fault::FaultKind::kLinkLoss;
  s.begin = begin;
  s.end = end;
  s.loss = loss;
  return s;
}

// --- net: packet conservation and delay spikes ---

TEST(LinkChaosTest, BurstLossConservesEveryPacket) {
  fault::FaultPlan plan;
  plan.add(link_loss(kSecond, 3 * kSecond, 0.35));
  fault::Runtime rt(&plan, sim::Rng(42).fork("fault").seed());
  const fault::ScopedFaults scope(&rt);

  sim::Simulator simr;
  net::Link::Config cfg;
  cfg.rate_bps = 12e6;
  cfg.queue_bytes = 8 * 1500;  // small enough for queue drops too
  net::CountingSink sink;
  net::Link link(&simr, cfg, &sink);
  const int kOffered = 500;
  for (int i = 0; i < kOffered; ++i) {
    simr.schedule_at(i * from_millis(10), [&link, i] {
      link.send(make_packet(i));
    });
  }
  simr.run();

  EXPECT_GT(link.fault_dropped_packets(), 0u);   // the burst really dropped
  EXPECT_LT(link.fault_dropped_packets(), 200u);  // only inside the window
  EXPECT_EQ(link.offered_packets(), static_cast<std::uint64_t>(kOffered));
  EXPECT_EQ(sink.packets(), link.delivered_packets());
  fault::InvariantChecker checker;
  checker.check_link_conservation(link);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(LinkChaosTest, AqmUnderBurstLossKeepsExtendedLedger) {
  // CoDel+ECN under a lossy burst: fault drops, AQM marks and deliveries
  // all land in one ledger, and the extended conservation invariant
  // (including the marked <= surviving bound) must hold throughout.
  fault::FaultPlan plan;
  plan.add(link_loss(kSecond, 3 * kSecond, 0.30));
  fault::Runtime rt(&plan, sim::Rng(42).fork("fault").seed());
  const fault::ScopedFaults scope(&rt);

  sim::Simulator simr;
  net::Link::Config cfg;
  cfg.rate_bps = 12e6;
  cfg.queue_bytes = 16 << 20;  // deep buffer: sheds come from CoDel, not tail
  cfg.qdisc.kind = net::QdiscKind::kCoDel;
  cfg.qdisc.ecn = true;
  cfg.name = "aqm-chaos";
  net::CountingSink sink;
  net::Link link(&simr, cfg, &sink);
  // 2x overload of ECT traffic for 5 s, straddling the loss window.
  const int kOffered = 10000;
  for (int i = 0; i < kOffered; ++i) {
    simr.schedule_at(i * (from_millis(1) / 2), [&link, i] {
      net::Packet p = make_packet(i);
      p.ect = true;
      link.send(std::move(p));
    });
  }
  simr.run();

  EXPECT_GT(link.fault_dropped_packets(), 0u);  // the burst fired
  EXPECT_GT(link.marked_packets(), 0u);         // the AQM kept policing
  EXPECT_EQ(link.dropped_packets(), 0u);        // ...by marking, not dropping
  EXPECT_EQ(link.offered_packets(), static_cast<std::uint64_t>(kOffered));
  fault::InvariantChecker checker;
  checker.check_link_conservation(link);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(TcpChaosAqmTest, CodelBottleneckSurvivesBurstLoss) {
  // A full transport loop over a CoDel bottleneck while the link bleeds:
  // the AQM and the fault layer drop from the same queue and the flow must
  // recover once the window closes.
  fault::FaultPlan plan;
  plan.add(link_loss(2 * kSecond, 4 * kSecond, 0.35));
  fault::Runtime rt(&plan, sim::Rng(21).fork("fault").seed());
  const fault::ScopedFaults scope(&rt);

  sim::Simulator simr;
  std::vector<net::Link::Config> hops(2);
  hops[0].rate_bps = 50e6;
  hops[0].prop_delay = from_millis(10);
  hops[0].queue_bytes = 400 * 1500;
  hops[0].qdisc.kind = net::QdiscKind::kCoDel;
  hops[0].name = "aqm-bottleneck";
  hops[1].rate_bps = 1e9;
  hops[1].prop_delay = from_millis(5);
  hops[1].queue_bytes = 8 << 20;
  hops[1].name = "wired";

  tcp::TcpConfig cfg;
  cfg.algo = tcp::CcAlgo::kCubic;
  net::PathNetwork path(&simr, std::move(hops));
  auto sender = std::make_unique<tcp::TcpSender>(
      &simr, cfg, 1, [&path](net::Packet p) { path.send_a_to_b(std::move(p)); });
  auto receiver = std::make_unique<tcp::TcpReceiver>(
      &simr, cfg, 1, [&path](net::Packet p) { path.send_b_to_a(std::move(p)); });
  path.attach_b(receiver.get());
  path.attach_a(sender.get());
  sender->start_bulk();
  simr.run_until(12 * kSecond);

  EXPECT_GT(path.forward_link(0).fault_dropped_packets(), 0u);
  EXPECT_GT(sender->retransmissions(), 0u);
  EXPECT_GT(receiver->mean_goodput_bps(8 * kSecond, 12 * kSecond), 5e6);
  fault::InvariantChecker checker;
  checker.check_tcp(*sender, *receiver);
  for (std::size_t i = 0; i < path.hop_count(); ++i) {
    checker.check_link_conservation(path.forward_link(i));
    checker.check_link_conservation(path.reverse_link(i));
  }
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(LinkChaosTest, DelaySpikeAddsExactlyTheConfiguredDelay) {
  fault::FaultPlan plan;
  fault::FaultSpec spike;
  spike.kind = fault::FaultKind::kLinkDelay;
  spike.begin = kSecond;
  spike.end = 2 * kSecond;
  spike.extra_delay = from_millis(40);
  plan.add(spike);
  fault::Runtime rt(&plan, 1);
  const fault::ScopedFaults scope(&rt);

  sim::Simulator simr;
  net::Link::Config cfg;
  cfg.rate_bps = 12e6;  // 1500 B = 1 ms serialisation
  cfg.prop_delay = from_millis(5);
  std::vector<sim::Time> latencies;
  sim::Time sent_at = 0;
  net::LambdaSink sink([&](net::Packet) {
    latencies.push_back(simr.now() - sent_at);
  });
  net::Link link(&simr, cfg, &sink);
  simr.schedule_at(from_millis(500), [&] {
    sent_at = simr.now();
    link.send(make_packet(0));
  });
  simr.schedule_at(from_millis(1500), [&] {
    sent_at = simr.now();
    link.send(make_packet(1));
  });
  simr.run();

  ASSERT_EQ(latencies.size(), 2u);
  EXPECT_EQ(latencies[1] - latencies[0], from_millis(40));
  fault::InvariantChecker checker;
  checker.check_link_conservation(link);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// --- tcp: loss recovery across every congestion controller ---

struct TcpSession {
  TcpSession(sim::Simulator* simr, std::vector<net::Link::Config> hops,
             tcp::CcAlgo algo)
      : path(simr, std::move(hops)) {
    tcp::TcpConfig cfg;
    cfg.algo = algo;
    sender = std::make_unique<tcp::TcpSender>(
        simr, cfg, 1, [this](net::Packet p) { path.send_a_to_b(std::move(p)); });
    receiver = std::make_unique<tcp::TcpReceiver>(
        simr, cfg, 1, [this](net::Packet p) { path.send_b_to_a(std::move(p)); });
    path.attach_b(receiver.get());
    path.attach_a(sender.get());
  }

  net::PathNetwork path;
  std::unique_ptr<tcp::TcpSender> sender;
  std::unique_ptr<tcp::TcpReceiver> receiver;
};

std::vector<net::Link::Config> tcp_path() {
  std::vector<net::Link::Config> hops(2);
  hops[0].rate_bps = 50e6;
  hops[0].prop_delay = from_millis(10);
  hops[0].queue_bytes = 100 * 1500;
  hops[0].name = "bottleneck";
  hops[1].rate_bps = 1e9;
  hops[1].prop_delay = from_millis(5);
  hops[1].queue_bytes = 8 << 20;
  hops[1].name = "wired";
  return hops;
}

class TcpChaosTest : public ::testing::TestWithParam<tcp::CcAlgo> {};

TEST_P(TcpChaosTest, SurvivesBurstLossBlackoutAndDelaySpike) {
  // A gauntlet of transport faults on every link: a lossy burst, a total
  // 1-second blackout (forces an RTO storm) and a delay spike. Every
  // controller must keep the books straight and resume after the faults.
  fault::FaultPlan plan;
  plan.add(link_loss(2 * kSecond, 4 * kSecond, 0.35));
  plan.add(link_loss(6 * kSecond, 7 * kSecond, 1.0));
  fault::FaultSpec spike;
  spike.kind = fault::FaultKind::kLinkDelay;
  spike.begin = 8 * kSecond;
  spike.end = 9 * kSecond;
  spike.extra_delay = from_millis(30);
  plan.add(spike);
  fault::Runtime rt(&plan, sim::Rng(7).fork("fault").seed());
  const fault::ScopedFaults scope(&rt);

  sim::Simulator simr;
  TcpSession s(&simr, tcp_path(), GetParam());
  s.sender->start_bulk();
  simr.run_until(15 * kSecond);

  const std::string algo = to_string(GetParam());
  // The flow recovers: data keeps arriving after the last fault window.
  EXPECT_GT(s.receiver->mean_goodput_bps(10 * kSecond, 15 * kSecond), 1e6)
      << algo;
  // The blackout guarantees at least one RTO; the burst guarantees
  // retransmissions.
  EXPECT_GE(s.sender->timeouts(), 1u) << algo;
  EXPECT_GT(s.sender->retransmissions(), 0u) << algo;

  fault::InvariantChecker checker;
  checker.check_tcp(*s.sender, *s.receiver);
  for (std::size_t i = 0; i < s.path.hop_count(); ++i) {
    checker.check_link_conservation(s.path.forward_link(i));
    checker.check_link_conservation(s.path.reverse_link(i));
    EXPECT_GT(s.path.forward_link(i).fault_dropped_packets() +
                  s.path.reverse_link(i).fault_dropped_packets(),
              0u)
        << algo << " hop " << i;
  }
  EXPECT_TRUE(checker.ok()) << algo << "\n" << checker.report();
}

INSTANTIATE_TEST_SUITE_P(Algos, TcpChaosTest,
                         ::testing::Values(tcp::CcAlgo::kReno,
                                           tcp::CcAlgo::kCubic,
                                           tcp::CcAlgo::kVegas,
                                           tcp::CcAlgo::kVeno,
                                           tcp::CcAlgo::kBbr),
                         [](const auto& info) { return to_string(info.param); });

TEST(ServerStallChaosTest, StallBlocksOnlyNewData) {
  fault::FaultPlan plan;
  fault::FaultSpec stall;
  stall.kind = fault::FaultKind::kServerStall;
  stall.begin = 2 * kSecond;
  stall.end = 4 * kSecond;
  plan.add(stall);
  fault::Runtime rt(&plan, 3);
  const fault::ScopedFaults scope(&rt);

  sim::Simulator simr;
  TcpSession s(&simr, tcp_path(), tcp::CcAlgo::kCubic);
  s.sender->start_bulk();

  std::uint64_t rcvd_early = 0, rcvd_late = 0, rcvd_at_end_of_stall = 0;
  // In-flight data drains within an RTT of the stall onset; after that the
  // receiver sees nothing new until the window closes.
  simr.schedule_at(from_millis(2500), [&] {
    rcvd_early = s.receiver->bytes_received();
  });
  simr.schedule_at(from_millis(3900), [&] {
    rcvd_late = s.receiver->bytes_received();
  });
  simr.schedule_at(from_millis(4500), [&] {
    rcvd_at_end_of_stall = s.receiver->bytes_received();
  });
  simr.run_until(8 * kSecond);

  EXPECT_GT(rcvd_early, 0u);
  EXPECT_EQ(rcvd_early, rcvd_late);  // fully stalled mid-window
  EXPECT_GT(rcvd_at_end_of_stall, rcvd_late);  // resumes promptly
  EXPECT_GT(s.receiver->mean_goodput_bps(5 * kSecond, 8 * kSecond), 10e6);
  fault::InvariantChecker checker;
  checker.check_tcp(*s.sender, *s.receiver);
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// --- ran/radio: sector outage, RRC re-establishment, coverage holes ---

// A quasi-stationary UE parked on the boresight of the first NR sector: the
// serving pair never changes on its own, so every transition in the test is
// caused by the injected fault.
class RanChaosFixture : public ::testing::Test {
 protected:
  RanChaosFixture()
      : campus_(geo::make_campus(sim::Rng(42))),
        dep_(ran::make_deployment(&campus_, sim::Rng(7))) {}

  geo::Route parked_route() const {
    const ran::Cell& c = dep_.cells(radio::Rat::kNr).front();
    const double az = c.site.antenna.azimuth_deg() * M_PI / 180.0;
    const geo::Point p{c.site.pos.x + 40 * std::cos(az),
                       c.site.pos.y + 40 * std::sin(az)};
    return geo::Route({p, {p.x + 2.0, p.y}});
  }

  ran::MobilityConfig parked_config() const {
    ran::MobilityConfig cfg;
    cfg.speed_mps = 0.01;  // 2 m route: stays "parked" for 200 s
    return cfg;
  }

  geo::CampusMap campus_;
  ran::Deployment dep_;
};

TEST_F(RanChaosFixture, AnchorOutageReestablishesWithinBound) {
  // Find the anchor the parked UE camps on (fault-free dry run).
  int anchor_pci = -1;
  {
    sim::Simulator simr;
    ran::HandoffEngine probe(&simr, &dep_, parked_config(), sim::Rng(5));
    probe.start(parked_route());
    simr.run_until(kSecond);
    ASSERT_NE(probe.serving_lte(), nullptr);
    anchor_pci = probe.serving_lte()->pci;
  }

  fault::FaultPlan plan;
  fault::FaultSpec outage;
  outage.kind = fault::FaultKind::kSectorOutage;
  outage.begin = 5 * kSecond;
  outage.end = 8 * kSecond;
  outage.pci = anchor_pci;
  plan.add(outage);
  fault::Runtime rt(&plan, 11);
  const fault::ScopedFaults scope(&rt);

  sim::Simulator simr;
  const ran::MobilityConfig cfg = parked_config();
  ran::HandoffEngine engine(&simr, &dep_, cfg, sim::Rng(5));
  engine.start(parked_route());
  const ran::Cell* serving_during_outage = nullptr;
  simr.schedule_at(7 * kSecond, [&] {
    serving_during_outage = engine.serving_lte();
  });
  simr.run_until(20 * kSecond);

  // Exactly one radio-link failure, recovered onto a live cell in exactly
  // the detection + procedure bound.
  ASSERT_EQ(engine.serving_gaps().size(), 1u);
  const auto& gap = engine.serving_gaps().front();
  EXPECT_EQ(gap.end - gap.begin, ran::kReestablishBound);
  ASSERT_NE(serving_during_outage, nullptr);
  EXPECT_NE(serving_during_outage->pci, anchor_pci);
  EXPECT_TRUE(engine.data_interrupted(gap.begin));
  EXPECT_FALSE(engine.data_interrupted(gap.end));

  fault::InvariantChecker checker;
  checker.check_serving_continuity(engine, ran::kReestablishBound);
  checker.check_rrc_legality(engine.rrc_trajectory());
  EXPECT_TRUE(checker.ok()) << checker.report();
  // The trajectory passed through Idle (RLF) and back to connected.
  bool saw_idle = false;
  for (const auto& [t, state] : engine.rrc_trajectory()) {
    saw_idle |= (state == ran::RrcState::kIdle && t > 0);
  }
  EXPECT_TRUE(saw_idle);
}

TEST_F(RanChaosFixture, NrOutageAbortsHandoffsAndNeverAttaches) {
  // Every NR sector is dark for the whole run, but measurements still show
  // strong NR signal — the NSA controller keeps triggering 4G→5G adds and
  // every one of them must abort mid-hand-off (the target is in outage),
  // with the UE riding out the run on its LTE anchor.
  fault::FaultPlan plan;
  for (const ran::Cell& c : dep_.cells(radio::Rat::kNr)) {
    fault::FaultSpec outage;
    outage.kind = fault::FaultKind::kSectorOutage;
    outage.begin = 0;
    outage.end = 60 * kSecond;
    outage.pci = c.pci;
    plan.add(outage);
  }
  fault::Runtime rt(&plan, 13);
  const fault::ScopedFaults scope(&rt);

  sim::Simulator simr;
  ran::HandoffEngine engine(&simr, &dep_, parked_config(), sim::Rng(5));
  engine.start(parked_route());
  bool nr_ever_attached = false;
  for (int t = 1; t <= 9; ++t) {
    simr.schedule_at(t * kSecond, [&] {
      nr_ever_attached |= engine.nr_attached();
    });
  }
  simr.run_until(10 * kSecond);

  EXPECT_FALSE(nr_ever_attached);
  EXPECT_NE(engine.serving_lte(), nullptr);
  ASSERT_FALSE(engine.records().empty());  // adds kept triggering...
  for (const ran::HandoffRecord& r : engine.records()) {
    EXPECT_EQ(r.type, ran::HandoffType::k4G5G);
    EXPECT_TRUE(r.aborted);  // ...and every one aborted legally
  }
  fault::InvariantChecker checker;
  checker.check_rrc_legality(engine.rrc_trajectory());
  checker.check_serving_continuity(engine, sim::Time{0});  // no gaps at all
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_EQ(engine.serving_gaps().size(), 0u);
}

TEST_F(RanChaosFixture, CoverageHoleShiftsRsrpByExactlyTheOffset) {
  fault::FaultPlan plan;
  fault::FaultSpec hole;
  hole.kind = fault::FaultKind::kCoverageHole;
  hole.begin = kSecond;
  hole.end = 2 * kSecond;
  hole.offset_db = 50.0;
  plan.add(hole);
  fault::Runtime rt(&plan, 17);
  const fault::ScopedFaults scope(&rt);

  sim::Simulator simr;
  // The environment captures the fault runtime at construction: build a
  // fresh deployment under the installed scope.
  const ran::Deployment dep = ran::make_deployment(&campus_, sim::Rng(7));
  const geo::Point pos = campus_.bounds().center();
  double before = 0, during = 0, after = 0;
  simr.schedule_at(from_millis(500), [&] {
    before = dep.best(radio::Rat::kNr, pos).rsrp_dbm;
  });
  simr.schedule_at(from_millis(1500), [&] {
    during = dep.best(radio::Rat::kNr, pos).rsrp_dbm;
  });
  simr.schedule_at(from_millis(2500), [&] {
    after = dep.best(radio::Rat::kNr, pos).rsrp_dbm;
  });
  simr.run();
  EXPECT_NEAR(before - during, 50.0, 1e-9);
  EXPECT_NEAR(before, after, 1e-9);  // fully restored after the window
}

TEST_F(RanChaosFixture, CoverageHoleDropsTheNrLeg) {
  fault::FaultPlan plan;
  fault::FaultSpec hole;
  hole.kind = fault::FaultKind::kCoverageHole;
  hole.begin = 10 * kSecond;
  hole.end = 30 * kSecond;
  hole.offset_db = 50.0;
  plan.add(hole);
  fault::Runtime rt(&plan, 19);
  const fault::ScopedFaults scope(&rt);

  sim::Simulator simr;
  const ran::Deployment dep = ran::make_deployment(&campus_, sim::Rng(7));
  ran::HandoffEngine engine(&simr, &dep, parked_config(), sim::Rng(5));
  engine.start(parked_route());
  bool attached_before_hole = false;
  bool attached_in_hole = true;
  simr.schedule_at(9 * kSecond, [&] {
    attached_before_hole = engine.nr_attached();
  });
  simr.schedule_at(25 * kSecond, [&] {
    attached_in_hole = engine.nr_attached();
  });
  simr.run_until(26 * kSecond);

  // Parked on an NR boresight the leg comes up quickly; a 50 dB shadowing
  // hole pushes RSRP far below the NSA service floor, so the UE falls back
  // to LTE — the paper's coverage-hole behaviour.
  EXPECT_TRUE(attached_before_hole);
  EXPECT_FALSE(attached_in_hole);
  EXPECT_NE(engine.serving_lte(), nullptr);
  fault::InvariantChecker checker;
  checker.check_rrc_legality(engine.rrc_trajectory());
  EXPECT_TRUE(checker.ok()) << checker.report();
  bool saw_fallback = false;
  for (const ran::HandoffRecord& r : engine.records()) {
    saw_fallback |= (r.type == ran::HandoffType::k5G4G && !r.aborted);
  }
  EXPECT_TRUE(saw_fallback);
}

// --- energy: physical accounting under every model ---

TEST(EnergyChaosTest, ReplayResidenciesCoverEveryModel) {
  const energy::RrcPowerMachine machine;
  fault::InvariantChecker checker;
  for (const energy::RadioModel model :
       {energy::RadioModel::kLteOnly, energy::RadioModel::kNrNsa,
        energy::RadioModel::kNrOracle, energy::RadioModel::kDynamicSwitch}) {
    checker.check_energy(
        machine.replay(energy::web_browsing_trace(sim::Rng(4)), model));
    checker.check_energy(
        machine.replay(energy::file_transfer_trace(300'000'000), model));
  }
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GE(checker.checks_run(), 8u * 3u);
}

// --- parsim: the fault campaign on the parallel lock-step core ---

// Three link worlds, one per sim::ParSim lane, offered
// packets through a burst-loss window. Returns a canonical transcript
// (per-lane ledgers + merged deterministic metrics); every partition must
// keep packet conservation and the transcript must not depend on the
// worker-thread count.
std::string run_partitioned_fault_links(int threads) {
  fault::FaultPlan plan;
  plan.add(link_loss(kSecond, 3 * kSecond, 0.35));
  fault::Runtime rt(&plan, sim::Rng(42).fork("fault").seed());
  const fault::ScopedFaults fscope(&rt);
  obs::MetricsRegistry reg;
  const obs::ScopedObs oscope(nullptr, &reg);

  sim::ParSimConfig cfg;
  cfg.lanes = 3;
  cfg.threads = threads;
  cfg.lookahead = 200 * sim::kMicrosecond;
  sim::ParSim par(cfg);

  struct World {
    std::unique_ptr<net::CountingSink> sink;
    std::unique_ptr<net::Link> link;
  };
  std::vector<World> worlds(3);
  for (int k = 0; k < 3; ++k) {
    par.with_lane(k, [&, k] {
      World& w = worlds[static_cast<std::size_t>(k)];
      w.sink = std::make_unique<net::CountingSink>();
      net::Link::Config lcfg;
      lcfg.rate_bps = 12e6;
      lcfg.queue_bytes = 8 * 1500;
      lcfg.name = "chaos-lane" + std::to_string(k);
      w.link = std::make_unique<net::Link>(&par.lane(k), lcfg, w.sink.get());
      net::Link* link = w.link.get();
      for (int i = 0; i < 400; ++i) {
        par.lane(k).schedule_at(i * from_millis(10), [link, i] {
          link->send(make_packet(i));
        });
      }
    });
  }
  par.run_until(5 * kSecond);
  par.finish();

  std::ostringstream os;
  std::uint64_t fault_drops = 0;
  for (int k = 0; k < 3; ++k) {
    const World& w = worlds[static_cast<std::size_t>(k)];
    fault::InvariantChecker checker;
    checker.check_link_conservation(*w.link);
    EXPECT_TRUE(checker.ok()) << "lane " << k << ": " << checker.report();
    fault_drops += w.link->fault_dropped_packets();
    os << "lane" << k << ": offered=" << w.link->offered_packets()
       << " delivered=" << w.link->delivered_packets()
       << " fault_dropped=" << w.link->fault_dropped_packets()
       << " sink=" << w.sink->packets() << "\n";
  }
  EXPECT_GT(fault_drops, 0u) << "the burst never fired";
  for (const auto& s : reg.snapshot(obs::MetricClock::kSim)) {
    os << s.name << '=' << s.value << ";";
  }
  return os.str();
}

TEST(ParSimChaosTest, FaultedPartitionsConserveAndStayThreadInvariant) {
  const std::string serial = run_partitioned_fault_links(1);
  EXPECT_EQ(serial, run_partitioned_fault_links(2));
  EXPECT_EQ(serial, run_partitioned_fault_links(4));
}

// A 2-district partitioned city on the parallel core: the Runner installs
// the fault plan (sector outage + burst loss + coverage hole) and the
// campaign output must be byte-identical across every --jobs x
// --sim-threads cell.
void run_par_city_chaos(const core::ExperimentContext& ctx) {
  core::PartitionedCityConfig part;
  part.districts = 2;
  part.district.width_m = 640.0;
  part.district.height_m = 640.0;
  part.district.grid.rings = 1;

  sim::ParSimConfig pcfg;
  pcfg.lanes = part.districts;
  pcfg.threads = ctx.sim_threads;
  pcfg.lookahead = core::city_partition_lookahead(part);
  sim::ParSim par(pcfg);

  struct District {
    std::unique_ptr<core::CityScenario> sc;
    std::unique_ptr<ran::UeCohort> cohort;
  };
  const sim::Time duration = 10 * kSecond;
  std::vector<District> districts(static_cast<std::size_t>(part.districts));
  for (int k = 0; k < part.districts; ++k) {
    par.with_lane(k, [&, k] {
      District& d = districts[static_cast<std::size_t>(k)];
      const std::string tag = "district" + std::to_string(k);
      d.sc = std::make_unique<core::CityScenario>(
          sim::Rng(ctx.seed).fork(tag).seed(), part.district);
      ran::CohortConfig ccfg;
      ccfg.name = "chaos.d" + std::to_string(k);
      ccfg.domain = k;
      d.cohort = std::make_unique<ran::UeCohort>(
          &d.sc->deployment(), ccfg, sim::Rng(ctx.seed).fork(tag + ".cohort"));
      sim::Rng place = sim::Rng(ctx.seed).fork(tag + ".ues");
      for (int i = 0; i < 4; ++i) {
        d.cohort->add_route(
            geo::make_waypoint_route(d.sc->campus(), place, 4), 1.4);
      }
      for (int i = 4; i < 30; ++i) {
        d.cohort->add_stationary(d.sc->campus().random_point(place));
      }
      d.cohort->start(&par.lane(k), duration);
    });
  }
  par.run_until(duration);
  par.finish();

  std::uint64_t sweeps = 0, handoffs = 0, a3 = 0;
  for (const District& d : districts) {
    sweeps += d.cohort->stats().sweeps;
    handoffs += d.cohort->stats().handoffs;
    a3 += d.cohort->stats().a3_triggers;
  }
  EXPECT_GT(sweeps, 0u);
  *ctx.out << "par_city_chaos: sweeps=" << sweeps << " handoffs=" << handoffs
           << " a3=" << a3 << " windows=" << par.windows() << "\n\n";
  ctx.metric("sweeps", static_cast<double>(sweeps), "count");
  ctx.metric("handoffs_total", static_cast<double>(handoffs), "count");
  ctx.metric("a3_triggers", static_cast<double>(a3), "count");
  ctx.metric("parsim_windows", static_cast<double>(par.windows()), "count");
}

TEST(ParSimChaosTest, FaultedPartitionedCityIsJobsAndSimThreadsDeterministic) {
  core::ExperimentRegistry reg;
  reg.add({"par_city_chaos", "chaos",
           "partitioned city under sector outage + coverage hole",
           /*smoke=*/true, run_par_city_chaos});

  // Harvest a PCI that really exists in district 0 (same seed forks the
  // experiment will draw), so the sector outage genuinely fires.
  const std::uint64_t exp_seed = core::Runner::fork_seed(42, "par_city_chaos");
  core::PartitionedCityConfig part;
  part.district.width_m = 640.0;
  part.district.height_m = 640.0;
  part.district.grid.rings = 1;
  const core::CityScenario probe(sim::Rng(exp_seed).fork("district0").seed(),
                                 part.district);
  ASSERT_FALSE(probe.deployment().cells(radio::Rat::kNr).empty());
  const int pci = probe.deployment().cells(radio::Rat::kNr).front().pci;

  auto plan = std::make_shared<fault::FaultPlan>();
  plan->add(link_loss(kSecond, 3 * kSecond, 0.35));
  fault::FaultSpec outage;
  outage.kind = fault::FaultKind::kSectorOutage;
  outage.begin = 3 * kSecond;
  outage.end = 7 * kSecond;
  outage.pci = pci;
  plan->add(outage);
  fault::FaultSpec hole;
  hole.kind = fault::FaultKind::kCoverageHole;
  hole.begin = 2 * kSecond;
  hole.end = 8 * kSecond;
  hole.offset_db = 30.0;
  plan->add(hole);

  core::RunnerOptions serial;
  serial.jobs = 1;
  serial.sim_threads = 1;
  serial.seed = 42;
  serial.faults = plan;
  std::ostringstream ref;
  core::write_json(core::Runner(serial, &reg).run(), ref,
                   /*include_timing=*/false);

  for (const auto& [jobs, st] : {std::pair{2, 2}, {1, 4}, {2, 1}}) {
    core::RunnerOptions leg = serial;
    leg.jobs = jobs;
    leg.sim_threads = st;
    std::ostringstream got;
    core::write_json(core::Runner(leg, &reg).run(), got,
                     /*include_timing=*/false);
    EXPECT_EQ(ref.str(), got.str()) << "jobs=" << jobs << " st=" << st;
  }

  // The plan really changed the campaign: a fault-free run differs.
  core::RunnerOptions clean = serial;
  clean.faults = nullptr;
  std::ostringstream jc;
  core::write_json(core::Runner(clean, &reg).run(), jc,
                   /*include_timing=*/false);
  EXPECT_NE(ref.str(), jc.str());
}

// --- core: a faulted campaign is --jobs-deterministic ---

// An experiment whose outcome depends on the ambient fault runtime the
// Runner installs: packets through a lossy-window link.
core::ExperimentSpec faulted_link_spec(int index) {
  const std::string name = "faulted_link_" + std::to_string(index);
  core::ExperimentSpec spec{name, "chaos", "lossy window probe",
                            /*smoke=*/true, nullptr};
  spec.run = [name](const core::ExperimentContext& ctx) {
    sim::Simulator simr;
    net::Link::Config cfg;
    cfg.rate_bps = 12e6;
    cfg.name = "chaos-wired";
    net::CountingSink sink;
    net::Link link(&simr, cfg, &sink);
    for (int i = 0; i < 400; ++i) {
      simr.schedule_at(i * from_millis(10), [&link, i] {
        link.send(make_packet(i));
      });
    }
    simr.run();
    fault::InvariantChecker checker;
    checker.check_link_conservation(link);
    *ctx.out << name << ": delivered=" << link.delivered_packets()
             << " fault_dropped=" << link.fault_dropped_packets()
             << " invariants=" << (checker.ok() ? "ok" : checker.report())
             << " seed=" << ctx.seed << "\n\n";
  };
  return spec;
}

TEST(RunnerChaosTest, FaultedCampaignIsJobsDeterministic) {
  core::ExperimentRegistry reg;
  for (int i = 0; i < 6; ++i) reg.add(faulted_link_spec(i));
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->add(link_loss(kSecond, 3 * kSecond, 0.5));

  core::RunnerOptions serial;
  serial.jobs = 1;
  serial.seed = 42;
  serial.faults = plan;
  core::RunnerOptions parallel = serial;
  parallel.jobs = 2;

  const core::RunSummary a = core::Runner(serial, &reg).run();
  const core::RunSummary b = core::Runner(parallel, &reg).run();
  std::ostringstream ja, jb;
  core::write_json(a, ja, /*include_timing=*/false);
  core::write_json(b, jb, /*include_timing=*/false);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_TRUE(a.all_ok());

  // The plan really fired (every experiment lost packets, books stayed
  // straight), and a fault-free campaign reads differently.
  for (const core::ExperimentResult& r : a.results) {
    EXPECT_EQ(r.text.find("fault_dropped=0 "), std::string::npos) << r.name;
    EXPECT_NE(r.text.find("invariants=ok"), std::string::npos) << r.name;
  }
  core::RunnerOptions clean = serial;
  clean.faults = nullptr;
  const core::RunSummary c = core::Runner(clean, &reg).run();
  std::ostringstream jc;
  core::write_json(c, jc, /*include_timing=*/false);
  EXPECT_NE(ja.str(), jc.str());
  for (const core::ExperimentResult& r : c.results) {
    EXPECT_NE(r.text.find("fault_dropped=0 "), std::string::npos) << r.name;
  }
}

}  // namespace
}  // namespace fiveg
