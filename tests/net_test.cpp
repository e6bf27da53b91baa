// Unit/integration tests for the packet network: queues, links, paths,
// traceroute, UDP, cross traffic and the cellular path factories.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/aqm.h"
#include "net/cross_traffic.h"
#include "net/epc.h"
#include "net/link.h"
#include "net/packet.h"
#include "net/path.h"
#include "net/ran_link.h"
#include "net/topology.h"
#include "net/traceroute.h"
#include "net/udp.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "tcp/tcp_receiver.h"
#include "tcp/tcp_sender.h"

namespace fiveg::net {
namespace {

using sim::from_millis;
using sim::kMillisecond;
using sim::kSecond;
using sim::to_millis;

Packet make_packet(std::uint32_t flow, std::uint64_t seq, std::uint32_t bytes) {
  Packet p;
  p.flow_id = flow;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

TEST(LinkTest, SerializationAndPropagation) {
  sim::Simulator simr;
  Link::Config cfg;
  cfg.rate_bps = 12e6;  // 1500 B = 1 ms serialisation
  cfg.prop_delay = from_millis(5);
  sim::Time delivered_at = -1;
  LambdaSink sink([&](Packet) { delivered_at = simr.now(); });
  Link link(&simr, cfg, &sink);
  link.send(make_packet(1, 0, 1500));
  simr.run();
  EXPECT_EQ(delivered_at, from_millis(6));
  EXPECT_EQ(link.delivered_packets(), 1u);
  EXPECT_EQ(link.delivered_bytes(), 1500u);
}

TEST(LinkTest, BackToBackPacketsQueue) {
  sim::Simulator simr;
  Link::Config cfg;
  cfg.rate_bps = 12e6;
  cfg.prop_delay = 0;
  std::vector<sim::Time> deliveries;
  LambdaSink sink([&](Packet) { deliveries.push_back(simr.now()); });
  Link link(&simr, cfg, &sink);
  for (int i = 0; i < 3; ++i) link.send(make_packet(1, i, 1500));
  simr.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], from_millis(1));
  EXPECT_EQ(deliveries[1], from_millis(2));
  EXPECT_EQ(deliveries[2], from_millis(3));
}

TEST(LinkTest, QueueOverflowDrops) {
  sim::Simulator simr;
  Link::Config cfg;
  cfg.rate_bps = 12e6;
  cfg.queue_bytes = 4500;  // 3 packets
  CountingSink sink;
  Link link(&simr, cfg, &sink);
  for (int i = 0; i < 10; ++i) link.send(make_packet(1, i, 1500));
  simr.run();
  // One transmits immediately; 3 queue; 6 dropped... the head-of-line one
  // leaves the queue as soon as transmission starts.
  EXPECT_GT(link.dropped_packets(), 0u);
  EXPECT_EQ(sink.packets() + link.dropped_packets(), 10u);
}

TEST(LinkTest, BlockedLinkHoldsTraffic) {
  sim::Simulator simr;
  bool blocked = true;
  Link::Config cfg;
  cfg.rate_bps = 1e9;
  cfg.prop_delay = 0;
  cfg.blocked_fn = [&] { return blocked; };
  CountingSink sink;
  Link link(&simr, cfg, &sink);
  link.send(make_packet(1, 0, 1500));
  simr.run_until(from_millis(50));
  EXPECT_EQ(sink.packets(), 0u);
  blocked = false;
  simr.run_until(from_millis(60));
  EXPECT_EQ(sink.packets(), 1u);
}

TEST(LinkTest, DynamicRateFollowsCallback) {
  sim::Simulator simr;
  double rate = 12e6;
  Link::Config cfg;
  cfg.rate_fn = [&] { return rate; };
  cfg.prop_delay = 0;
  std::vector<sim::Time> deliveries;
  LambdaSink sink([&](Packet) { deliveries.push_back(simr.now()); });
  Link link(&simr, cfg, &sink);
  link.send(make_packet(1, 0, 1500));
  simr.run();
  rate = 120e6;
  link.send(make_packet(1, 1, 1500));
  simr.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], from_millis(1));
  EXPECT_EQ(deliveries[1] - deliveries[0], from_millis(0.1));
}

TEST(PathNetworkTest, EndToEndDelivery) {
  sim::Simulator simr;
  std::vector<Link::Config> hops(3);
  for (auto& h : hops) {
    h.rate_bps = 1e9;
    h.prop_delay = from_millis(1);
  }
  PathNetwork path(&simr, hops);
  CountingSink at_b, at_a;
  path.attach_b(&at_b);
  path.attach_a(&at_a);
  path.send_a_to_b(make_packet(1, 0, 1500));
  path.send_b_to_a(make_packet(2, 0, 40));
  simr.run();
  EXPECT_EQ(at_b.packets(), 1u);
  EXPECT_EQ(at_a.packets(), 1u);
}

TEST(PathNetworkTest, ProbeRttGrowsWithHopCount) {
  sim::Simulator simr;
  std::vector<Link::Config> hops(4);
  for (auto& h : hops) {
    h.rate_bps = 1e9;
    h.prop_delay = from_millis(2);
  }
  PathNetwork path(&simr, hops);
  std::vector<double> rtts(5, -1.0);
  for (std::size_t h = 1; h <= 4; ++h) {
    path.probe(h, [&rtts, h](sim::Time rtt) { rtts[h] = to_millis(rtt); });
  }
  simr.run();
  for (std::size_t h = 1; h <= 4; ++h) {
    EXPECT_NEAR(rtts[h], 4.0 * static_cast<double>(h), 0.1) << "hop " << h;
  }
  EXPECT_THROW(path.probe(0, [](sim::Time) {}), std::invalid_argument);
  EXPECT_THROW(path.probe(5, [](sim::Time) {}), std::invalid_argument);
}

TEST(TracerouteTest, CollectsPerHopStats) {
  sim::Simulator simr;
  std::vector<Link::Config> hops(3);
  for (auto& h : hops) {
    h.rate_bps = 1e9;
    h.prop_delay = from_millis(3);
  }
  PathNetwork path(&simr, hops);
  Traceroute tr(&simr, &path, /*reps=*/10, /*gap=*/from_millis(50));
  std::vector<HopRtt> out;
  tr.run([&](std::vector<HopRtt> r) { out = std::move(r); });
  simr.run();
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t h = 0; h < 3; ++h) {
    EXPECT_EQ(out[h].rtt_ms.count(), 10u);
    EXPECT_EQ(out[h].lost, 0);
    EXPECT_NEAR(out[h].rtt_ms.mean(), 6.0 * (h + 1), 0.2);
  }
  // Hop RTTs are monotone along the path.
  EXPECT_LT(out[0].rtt_ms.mean(), out[2].rtt_ms.mean());
}

TEST(TracerouteTest, CountsLostProbes) {
  sim::Simulator simr;
  bool blocked = false;
  std::vector<net::Link::Config> hops(3);
  for (auto& h : hops) {
    h.rate_bps = 1e9;
    h.prop_delay = from_millis(2);
  }
  hops[2].blocked_fn = [&] { return blocked; };
  PathNetwork path(&simr, hops);
  blocked = true;  // the last hop is dark: hop-3 probes never answer
  Traceroute tr(&simr, &path, /*reps=*/5, /*gap=*/from_millis(100));
  std::vector<HopRtt> out;
  tr.run([&](std::vector<HopRtt> r) { out = std::move(r); });
  simr.run_until(10 * kSecond);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].lost, 0);
  EXPECT_EQ(out[1].lost, 0);
  EXPECT_EQ(out[2].lost, 5);  // all timed out
  EXPECT_EQ(out[2].rtt_ms.count(), 0u);
}

TEST(TracerouteTest, BufferEstimatorMaxMin) {
  measure::RunningStats rtt;
  rtt.add(10.0);
  rtt.add(14.8);  // 4.8 ms spread at 1 Gbps = 4.8e6 bits / 480 bits = 10000 pkts
  EXPECT_NEAR(estimate_buffer_packets(rtt), 10000.0, 1.0);
  measure::RunningStats single;
  single.add(5.0);
  EXPECT_DOUBLE_EQ(estimate_buffer_packets(single), 0.0);
}

TEST(UdpTest, ConstantRateAndLoss) {
  sim::Simulator simr;
  std::vector<Link::Config> hops(1);
  hops[0].rate_bps = 50e6;
  hops[0].prop_delay = from_millis(1);
  hops[0].queue_bytes = 64 * 1024;
  PathNetwork path(&simr, hops);
  UdpSink sink(&simr, /*flow_id=*/7);
  path.attach_b(&sink);
  UdpSource src(&simr, {7, 40e6, 1500}, [&](Packet p) {
    path.send_a_to_b(std::move(p));
  });
  src.start(2 * kSecond);
  simr.run();
  // 40 Mbps under a 50 Mbps link: everything arrives.
  EXPECT_EQ(sink.packets_received(), src.packets_sent());
  EXPECT_DOUBLE_EQ(sink.loss_ratio(src.packets_sent()), 0.0);
  EXPECT_NEAR(sink.mean_throughput_bps(0, 2 * kSecond), 40e6, 2e6);
  // Sequence numbers arrive in order on a FIFO path.
  for (std::size_t i = 1; i < sink.arrival_seqs().size(); ++i) {
    EXPECT_EQ(sink.arrival_seqs()[i], sink.arrival_seqs()[i - 1] + 1);
  }
}

TEST(UdpTest, OverloadLosesPackets) {
  sim::Simulator simr;
  std::vector<Link::Config> hops(1);
  hops[0].rate_bps = 50e6;
  hops[0].queue_bytes = 32 * 1024;
  PathNetwork path(&simr, hops);
  UdpSink sink(&simr, 7);
  path.attach_b(&sink);
  UdpSource src(&simr, {7, 100e6, 1500}, [&](Packet p) {
    path.send_a_to_b(std::move(p));
  });
  src.start(kSecond);
  simr.run();
  EXPECT_NEAR(sink.loss_ratio(src.packets_sent()), 0.5, 0.05);
}

TEST(CrossTrafficTest, MeanLoadInRange) {
  sim::Simulator simr;
  Link::Config cfg;
  cfg.rate_bps = 10e9;  // no self-congestion
  CountingSink sink;
  Link link(&simr, cfg, &sink);
  CrossTraffic x(&simr, &link, /*mean_on_s=*/0.025, sim::Rng(3));
  x.start(20 * kSecond);
  simr.run();
  const double measured_bps = 8.0 * sink.bytes() / 20.0;
  EXPECT_NEAR(measured_bps, x.mean_offered_bps(), 0.4 * x.mean_offered_bps());
  EXPECT_GT(x.packets_sent(), 1000u);
}

TEST(RanLinkTest, ProbeRttMatchesPaperHop1) {
  for (const radio::Rat rat : {radio::Rat::kNr, radio::Rat::kLte}) {
    sim::Simulator simr;
    RanLinkOptions opt;
    opt.rat = rat;
    opt.bitrate_bps = rat == radio::Rat::kNr ? 880e6 : 130e6;
    PathNetwork path(&simr, {make_ran_link_config(opt, sim::Rng(5))});
    measure::RunningStats rtt;
    for (int i = 0; i < 400; ++i) {
      simr.schedule_in(i * from_millis(10), [&] {
        path.probe(1, [&](sim::Time t) { rtt.add(to_millis(t)); });
      });
    }
    simr.run();
    const double expect = rat == radio::Rat::kNr ? 2.19 : 2.6;
    EXPECT_NEAR(rtt.mean(), expect, 0.35) << to_millis(ran_base_delay(rat));
  }
}

TEST(RanLinkTest, DataPacketsSeeHarqDelays) {
  sim::Simulator simr;
  RanLinkOptions opt;
  opt.rat = radio::Rat::kLte;
  opt.bitrate_bps = 130e6;
  PathNetwork path(&simr, {make_ran_link_config(opt, sim::Rng(6))});
  measure::RunningStats delays;
  LambdaSink sink([&](Packet p) { delays.add(to_millis(simr.now() - p.sent_at)); });
  path.attach_b(&sink);
  for (int i = 0; i < 3000; ++i) {
    simr.schedule_in(i * from_millis(1), [&, i] {
      Packet p = make_packet(1, i, 1500);
      p.sent_at = simr.now();
      path.send_a_to_b(std::move(p));
    });
  }
  simr.run();
  // ~16% of full-size packets retransmit at 8 ms a pop, and in-order
  // delivery (RLC reordering buffer) makes followers wait out each stall,
  // so the mean one-way delay sits well above the base + serialisation.
  EXPECT_GT(delays.mean(), 2.0);
  EXPECT_LT(delays.mean(), 14.0);
  EXPECT_GT(delays.max(), 9.0);  // at least one retransmission burst
}

// HARQ retransmission instants carry the simulated time of the simulator
// that runs the link, even when another simulator was built (and torn
// down) later in the same observability scope.
TEST(RanLinkTest, HarqInstantsUseTheLinksOwnSimulatorTime) {
  obs::Tracer trace;
  const obs::ScopedObs scope(&trace, nullptr);
  sim::Simulator simr;
  RanLinkOptions opt;
  opt.rat = radio::Rat::kLte;
  opt.bitrate_bps = 130e6;
  PathNetwork path(&simr, {make_ran_link_config(opt, sim::Rng(6))});
  CountingSink sink;
  path.attach_b(&sink);
  {
    sim::Simulator other;
    other.schedule_in(from_millis(5), [] {});
    other.run();
  }
  for (int i = 0; i < 200; ++i) {
    simr.schedule_in(i * from_millis(1), [&, i] {
      path.send_a_to_b(make_packet(1, i, 1500));
    });
  }
  simr.run();

  // Under a tracer every labelled event is a "sim" instant at its time;
  // HARQ draws happen inside the link's transmit-complete events.
  std::vector<sim::Time> tx_times;
  std::vector<sim::Time> harq_times;
  trace.for_each([&](const obs::TraceEvent& e) {
    if (e.phase != obs::TraceEvent::Phase::kInstant) return;
    if (e.name == "net.link_tx") tx_times.push_back(e.at);
    if (e.name == "ran.harq_retx") harq_times.push_back(e.at);
  });
  ASSERT_FALSE(harq_times.empty());
  for (const sim::Time at : harq_times) {
    EXPECT_GT(at, 0);
    EXPECT_TRUE(std::binary_search(tx_times.begin(), tx_times.end(), at))
        << at;
  }
}

TEST(EpcPathTest, FlatCoreSavesTwentyMs) {
  // Identical wired segment; hop-2 differs by ~10 ms one-way.
  EXPECT_NEAR(to_millis(epc_delay(radio::Rat::kLte)) -
                  to_millis(epc_delay(radio::Rat::kNr)),
              10.0, 0.1);

  for (const radio::Rat rat : {radio::Rat::kNr, radio::Rat::kLte}) {
    sim::Simulator simr;
    CellularPathOptions opt;
    opt.rat = rat;
    opt.ran.rat = rat;
    opt.ran.bitrate_bps = rat == radio::Rat::kNr ? 880e6 : 130e6;
    auto hops = make_cellular_path(opt, sim::Rng(8));
    EXPECT_EQ(hops.size(), static_cast<std::size_t>(2 + opt.wired_hops));
    EXPECT_EQ(hops[0].name.find("ran"), 0u);
    EXPECT_EQ(hops[1].name, "epc");
    EXPECT_EQ(hops[kBottleneckHopIndex].name, "metro-bottleneck");
  }
}

TEST(EpcPathTest, EndToEndRttReasonable) {
  sim::Simulator simr;
  CellularPathOptions opt;  // NR defaults, 30 km
  auto hops = make_cellular_path(opt, sim::Rng(9));
  PathNetwork path(&simr, std::move(hops));
  measure::RunningStats rtt;
  for (int i = 0; i < 30; ++i) {
    simr.schedule_in(i * from_millis(20), [&] {
      path.probe(path.hop_count(), [&](sim::Time t) { rtt.add(to_millis(t)); });
    });
  }
  simr.run();
  // Unloaded metro path: well under the paper's loaded 43.6 ms average,
  // well above the bare RAN RTT.
  EXPECT_GT(rtt.mean(), 5.0);
  EXPECT_LT(rtt.mean(), 25.0);
}

TEST(TopologyTest, Table6Servers) {
  const auto& servers = speedtest_servers();
  ASSERT_EQ(servers.size(), 20u);
  EXPECT_EQ(servers.front().city, "Beijing");
  EXPECT_NEAR(servers.front().distance_km, 1.67, 0.01);
  EXPECT_EQ(servers.back().city, "Kashi");
  EXPECT_NEAR(servers.back().distance_km, 3426.37, 0.01);
  for (std::size_t i = 1; i < servers.size(); ++i) {
    EXPECT_GT(servers[i].distance_km, servers[i - 1].distance_km);
  }
}

TEST(TopologyTest, PathOptionsScaleWithDistance) {
  const auto& servers = speedtest_servers();
  const auto near = make_server_path_options(radio::Rat::kNr, servers.front());
  const auto far = make_server_path_options(radio::Rat::kNr, servers.back());
  EXPECT_LT(near.wired_hops, far.wired_hops);
  EXPECT_GE(near.wired_hops, 5);
  EXPECT_LE(far.wired_hops, 11);
}

// A delivery waiting in a link's in-flight FIFO fires, among events at its
// instant, where it would have if it had been scheduled when it left the
// transmitter: after events scheduled before that, before events scheduled
// after it — even though its event is only created when the packet ahead
// of it is delivered.
TEST(LinkTest, DeliveryKeepsScheduleOrderTieBreak) {
  sim::Simulator simr;
  Link::Config cfg;
  cfg.rate_bps = 12e6;  // 1500 B = 1 ms serialisation
  cfg.prop_delay = from_millis(5);
  std::vector<std::string> order;
  LambdaSink sink([&](Packet p) {
    if (p.seq == 1) order.push_back("deliver");
  });
  Link link(&simr, cfg, &sink);
  const sim::Time t = from_millis(7);  // packet 1: sent 1-2 ms, lands at 7
  simr.schedule_at(t, [&] { order.push_back("before"); });
  link.send(make_packet(1, 0, 1500));
  link.send(make_packet(1, 1, 1500));
  // Runs at 2 ms right after packet 1 leaves the transmitter (that link_tx
  // event was scheduled at 1 ms, before this one).
  simr.schedule_at(from_millis(1.5), [&] {
    simr.schedule_at(from_millis(2), [&] {
      simr.schedule_at(t, [&] { order.push_back("after_tx"); });
    });
  });
  // Runs at 6 ms just before packet 0 is delivered, which is when packet
  // 1's delivery event is actually created.
  simr.schedule_at(from_millis(6), [&] {
    simr.schedule_at(t, [&] { order.push_back("late"); });
  });
  simr.run();
  EXPECT_EQ(order, (std::vector<std::string>{"before", "deliver", "after_tx",
                                             "late"}));
}

TEST(LinkTest, HarqJitteredDeliveriesStayInOrder) {
  sim::Simulator simr;
  Link::Config cfg;
  cfg.rate_bps = 12e6;
  cfg.prop_delay = from_millis(2);
  // Every third packet needs 8 ms of retransmissions.
  cfg.extra_delay_fn = [](sim::Time, const Packet& p) {
    return p.seq % 3 == 0 ? from_millis(8) : sim::Time{0};
  };
  std::vector<std::pair<std::uint64_t, sim::Time>> got;
  LambdaSink sink([&](Packet p) { got.emplace_back(p.seq, simr.now()); });
  Link link(&simr, cfg, &sink);
  for (int i = 0; i < 20; ++i) link.send(make_packet(1, i, 1500));
  simr.run();
  ASSERT_EQ(got.size(), 20u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, i);
    if (i > 0) {
      EXPECT_GE(got[i].second, got[i - 1].second);
    }
  }
  // Packet 0 (1 ms tx + 2 + 8 ms) holds back packet 1 (2 + 2 ms).
  EXPECT_EQ(got[0].second, from_millis(11));
  EXPECT_EQ(got[1].second, from_millis(11));
  // Packet 19 (20 ms + 2 ms) waits for packet 18 (19 + 2 + 8 ms).
  EXPECT_EQ(got[19].second, from_millis(29));
}

// Per-packet delay that grows with the sequence number: the in-flight FIFO
// deepens while its head keeps moving, so it grows across a wrapped ring.
TEST(LinkTest, InFlightFifoKeepsOrderWhileGrowing) {
  sim::Simulator simr;
  Link::Config cfg;
  cfg.rate_bps = 12e6;
  cfg.prop_delay = from_millis(1);
  cfg.extra_delay_fn = [](sim::Time, const Packet& p) {
    return static_cast<sim::Time>(p.seq) * from_millis(0.5);
  };
  std::vector<std::pair<std::uint64_t, sim::Time>> got;
  LambdaSink sink([&](Packet p) { got.emplace_back(p.seq, simr.now()); });
  Link link(&simr, cfg, &sink);
  for (int i = 0; i < 100; ++i) link.send(make_packet(1, i, 1500));
  simr.run();
  ASSERT_EQ(got.size(), 100u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, i);
    // Sent (i + 1) ms, then 1 ms propagation and i / 2 ms of extra delay.
    EXPECT_EQ(got[i].second,
              from_millis(static_cast<double>(i + 2) + 0.5 * i));
  }
}

TEST(LinkTest, ClearingSinkDropsInFlightPacketsSafely) {
  sim::Simulator simr;
  Link::Config cfg;
  cfg.rate_bps = 12e6;
  cfg.prop_delay = from_millis(10);
  CountingSink sink;
  Link link(&simr, cfg, &sink);
  for (int i = 0; i < 5; ++i) link.send(make_packet(1, i, 1500));
  // At 3 ms: 3 packets in the in-flight FIFO, 1 in service, 1 queued.
  simr.run_until(from_millis(3));
  link.set_sink(nullptr);
  simr.run();
  EXPECT_EQ(sink.packets(), 0u);
  EXPECT_EQ(link.delivered_packets(), 5u);
  EXPECT_EQ(link.in_transit_packets(), 0u);
  // Reattached, the link delivers again.
  link.set_sink(&sink);
  link.send(make_packet(1, 5, 1500));
  simr.run();
  EXPECT_EQ(sink.packets(), 1u);
}

// The conservation ledger (offered = fault-dropped + dropped + delivered +
// queued + in transit) holds at every instant, with packets both queued
// and in the in-flight FIFO, and every ledger-delivered packet reaches the
// sink once the pipe drains.
TEST(LinkTest, ConservationLedgerHoldsWithInFlightFifo) {
  sim::Simulator simr;
  Link::Config cfg;
  cfg.rate_bps = 20e6;
  cfg.prop_delay = from_millis(4);
  cfg.queue_bytes = 12 * 1500;
  cfg.extra_delay_fn = [](sim::Time, const Packet& p) {
    return p.seq % 5 == 0 ? from_millis(3) : sim::Time{0};
  };
  CountingSink sink;
  Link link(&simr, cfg, &sink);
  UdpSource src(&simr, {1, 40e6, 1500}, [&](Packet p) { link.send(p); });
  src.start(from_millis(200));
  for (int step = 1; step <= 60; ++step) {
    simr.run_until(from_millis(5 * step));
    const std::uint64_t accounted =
        link.fault_dropped_packets() + link.dropped_packets() +
        link.delivered_packets() + link.queue_packets() +
        link.in_transit_packets();
    ASSERT_EQ(link.offered_packets(), accounted) << "at step " << step;
    ASSERT_LE(sink.packets(), link.delivered_packets());
  }
  EXPECT_GT(link.dropped_packets(), 0u);
  EXPECT_EQ(sink.packets(), link.delivered_packets());
}

// Tier-1 allocation guard for the packet path: packets ride in link slots
// and FIFOs, never inside event callables, so a multi-hop TCP transfer
// schedules its events without heap allocations.
TEST(LinkTest, TcpPathSchedulesEventsWithoutHeapAllocations) {
  obs::MetricsRegistry reg;
  const obs::ScopedObs scope(nullptr, &reg);
  sim::Simulator simr;
  std::vector<Link::Config> hops(3);
  hops[0].rate_bps = 200e6;
  hops[1].rate_bps = 50e6;  // the bottleneck
  hops[1].queue_bytes = 60 * 1500;
  hops[2].rate_bps = 1e9;
  for (Link::Config& h : hops) h.prop_delay = from_millis(3);
  PathNetwork path(&simr, hops);
  tcp::TcpConfig cfg;
  tcp::TcpSender sender(&simr, cfg, 1,
                        [&](Packet p) { path.send_a_to_b(std::move(p)); });
  tcp::TcpReceiver receiver(&simr, cfg, 1,
                            [&](Packet p) { path.send_b_to_a(std::move(p)); });
  path.attach_b(&receiver);
  path.attach_a(&sender);
  sender.start_bulk();
  simr.run_until(kSecond);
  const double scheduled = static_cast<double>(
      reg.counter(obs::prof::kScheduledMetric, obs::MetricClock::kWall)
          .value());
  const double allocs = static_cast<double>(
      reg.counter(obs::prof::kHeapAllocMetric, obs::MetricClock::kWall)
          .value());
  EXPECT_GT(scheduled, 10000.0);
  EXPECT_GT(sender.bytes_acked(), 0u);
  EXPECT_LT(allocs, 0.01 * scheduled);
}

// Differential oracle for cut-through. The same script drives two links
// with rate_bps = R (eligible for cut-through) and two with rate_fn
// returning R (every transmit end is a real net.link_tx). Deliveries,
// probes at the same instants, the pending-event count and the link
// ledgers, logged after every event, must match line for line. Under a
// metrics scope no link cuts through, so the event accounting must match
// too.
struct OracleRun {
  std::vector<std::string> log;
  std::uint64_t executed = 0;
  std::uint64_t events = 0;
  std::uint64_t link_tx = 0;
  double depth_hwm = 0;
};

OracleRun run_link_oracle(bool constant_rate, bool observed) {
  obs::MetricsRegistry reg;
  std::unique_ptr<obs::ScopedObs> scope;
  if (observed) scope = std::make_unique<obs::ScopedObs>(nullptr, &reg);
  sim::Simulator simr;
  constexpr double kRate = 8e6;  // 1000 B in 1 ms
  Link::Config cfg;
  cfg.prop_delay = from_millis(2);
  if (constant_rate) {
    cfg.rate_bps = kRate;
  } else {
    cfg.rate_fn = [] { return kRate; };
  }
  OracleRun out;
  std::vector<Link*> links;
  const auto note = [&](const std::string& what) {
    std::string line = std::to_string(simr.now()) + " " + what + " depth " +
                       std::to_string(simr.queue_depth());
    for (const Link* l : links) {
      line += " |";
      for (const std::uint64_t v :
           {l->offered_packets(), l->delivered_packets(),
            l->delivered_bytes(), l->in_transit_packets(),
            l->queue_packets(), l->dropped_packets()}) {
        line += " " + std::to_string(v);
      }
    }
    out.log.push_back(line);
  };
  LambdaSink sink([&](Packet p) {
    note("deliver " + std::to_string(p.flow_id) + "/" +
         std::to_string(p.seq));
  });
  Link a(&simr, cfg, &sink);
  Link b(&simr, cfg, &sink);
  links = {&a, &b};
  std::uint64_t next_seq = 0;
  const auto send = [&](Link& l, std::uint32_t bytes) {
    l.send(make_packet(&l == &a ? 1 : 2, next_seq++, bytes));
    note("send");
  };
  const auto at = [&](double ms, std::function<void()> f) {
    simr.schedule_at(from_millis(ms), [f = std::move(f)] { f(); });
  };
  const auto probe = [&](double ms, const std::string& name) {
    at(ms, [&note, name] { note("probe " + name); });
  };
  // Ledgers after every event: a probe every 0.25 ms.
  for (int i = 0; i < 480; ++i) probe(0.25 * i, "tick");

  // Idle arrivals, each delivered 1 ms + 2 ms later, with probes tied to
  // the transmit end and to the delivery instant.
  probe(3, "before-delivery");
  at(0, [&] { send(a, 1000); });
  probe(1, "at-tx-end");
  probe(3, "after-delivery");
  at(10, [&] { send(a, 1000); });
  // A burst: one transmit end runs, the rest queue behind it.
  at(20, [&] {
    send(a, 1000);
    send(a, 500);
    send(a, 1500);
  });
  // Arrivals at exactly busy_until (31 ms): one scheduled before the
  // transmit end took its number (so the link is still busy), one after
  // (so the link is idle again).
  at(31, [&] { send(a, 1000); });
  at(30, [&] {
    send(a, 1000);
    simr.schedule_at(from_millis(31), [&] { send(a, 250); });
  });
  // The same, with the arrival scheduled right before the transmit end
  // takes its number, in the same event.
  at(35, [&] {
    simr.schedule_at(from_millis(36), [&] { send(a, 250); });
    send(a, 1000);
  });
  // A number taken for the delivery instant while the transmission is in
  // progress: the delivery must still sort after it.
  at(40, [&] {
    send(a, 1000);
    probe(43, "same-instant-as-delivery");
  });
  // Two links ending their transmissions at the same instant (51 ms) with
  // the same propagation delay: deliveries keep the transmit-end order.
  at(50, [&] { send(a, 1000); });
  at(50.5, [&] { send(b, 500); });
  // The sink cleared mid-flight and restored after the transmit end (the
  // packet is lost), then cleared and restored before it (delivered).
  at(60, [&] { send(a, 1000); });
  at(60.5, [&] { a.set_sink(nullptr); });
  at(61.5, [&] { a.set_sink(&sink); });
  at(70, [&] { send(b, 1000); });
  at(70.25, [&] { b.set_sink(nullptr); });
  at(70.75, [&] { b.set_sink(&sink); });
  // stop() inside a transmission; the driver sends between runs.
  at(80, [&] { send(a, 1000); });
  at(80.5, [&] {
    note("stop");
    simr.stop();
  });
  at(90, [&] { send(b, 1000); });

  simr.run_until(from_millis(80.5));  // ends at the stop()
  note("stopped");
  send(a, 1000);  // between runs, inside the transmission
  simr.run_until(from_millis(90.5));  // ends inside b's transmission
  note("paused");
  send(b, 1000);
  simr.run_until(from_millis(95));
  send(a, 1000);  // between runs, link idle: busy until 96 ms
  simr.run_until(from_millis(96));
  send(a, 1000);  // between runs, right at the transmit end
  simr.run();
  note("end");

  out.executed = simr.executed_events();
  if (observed) {
    out.events = reg.counter("sim.events").value();
    out.link_tx = reg.counter("sim.events.net.link_tx").value();
    out.depth_hwm = reg.gauge("sim.queue_depth_hwm").value();
  }
  return out;
}

TEST(LinkTest, CutThroughMatchesTheEventPerTransmitPath) {
  const OracleRun plain = run_link_oracle(/*constant_rate=*/false, false);
  const OracleRun cut = run_link_oracle(/*constant_rate=*/true, false);
  ASSERT_EQ(cut.log.size(), plain.log.size());
  for (std::size_t i = 0; i < plain.log.size(); ++i) {
    EXPECT_EQ(cut.log[i], plain.log[i]) << "line " << i;
  }
  EXPECT_LT(cut.executed, plain.executed);  // some transmit ends elided

  // Under a metrics scope every transmit end runs, so nothing changes at
  // all: the log, the executed events and their accounting.
  const OracleRun plain_seen = run_link_oracle(false, true);
  const OracleRun cut_seen = run_link_oracle(true, true);
  EXPECT_EQ(plain_seen.log, plain.log);
  EXPECT_EQ(cut_seen.log, plain.log);
  EXPECT_EQ(plain_seen.executed, plain.executed);
  EXPECT_EQ(cut_seen.executed, plain.executed);
  EXPECT_EQ(cut_seen.events, plain_seen.events);
  EXPECT_EQ(cut_seen.link_tx, plain_seen.link_tx);
  EXPECT_EQ(cut_seen.depth_hwm, plain_seen.depth_hwm);
  EXPECT_GT(plain_seen.link_tx, 0u);
}

// A link destroyed while it cuts through must not leave the simulator a
// claim that points at it: a number taken later for the dead link's
// delivery instant would call back into freed memory (caught under ASan).
TEST(LinkTest, DestroyedMidCutThroughLeavesNoClaimBehind) {
  sim::Simulator simr;
  CountingSink sink;
  Link::Config cfg;
  cfg.rate_bps = 8e6;  // 1000 B in 1 ms
  cfg.prop_delay = from_millis(2);
  auto link = std::make_unique<Link>(&simr, cfg, &sink);
  link->send(make_packet(1, 0, 1000));  // idle: cuts through, due at 3 ms
  simr.run_until(from_millis(0.5));     // inside the transmission
  link.reset();
  bool ran = false;
  simr.schedule_at(from_millis(3), [&] { ran = true; });
  simr.schedule_at(from_millis(0.75), [] {});
  // Run only up to before the dead link's pending delivery.
  simr.run_until(from_millis(1));
  EXPECT_FALSE(ran);
  EXPECT_EQ(sink.packets(), 0u);
}

// Property sweep: packet conservation on a congested path — everything
// sent is either delivered or accounted as a drop, across load levels.
class ConservationTest : public ::testing::TestWithParam<double> {};

TEST_P(ConservationTest, SentEqualsDeliveredPlusDropped) {
  sim::Simulator simr;
  std::vector<Link::Config> hops(2);
  hops[0].rate_bps = 100e6;
  hops[0].queue_bytes = 30 * 1500;
  hops[1].rate_bps = 50e6;
  hops[1].queue_bytes = 10 * 1500;
  PathNetwork path(&simr, hops);
  UdpSink sink(&simr, 1);
  path.attach_b(&sink);
  UdpSource src(&simr, {1, GetParam(), 1500}, [&](Packet p) {
    path.send_a_to_b(std::move(p));
  });
  src.start(kSecond);
  simr.run();
  EXPECT_EQ(src.packets_sent(), sink.packets_received() + path.total_drops());
}

INSTANTIATE_TEST_SUITE_P(Loads, ConservationTest,
                         ::testing::Values(10e6, 40e6, 60e6, 120e6, 400e6));

// --- queue disciplines (aqm.h) ---

TEST(DropTailQdiscTest, TailDropsBytesAndKeepsFifoOrder) {
  DropTailQdisc q({}, 3000);
  EXPECT_TRUE(q.push(make_packet(1, 0, 1500), 0));
  EXPECT_TRUE(q.push(make_packet(1, 1, 1500), 0));
  EXPECT_FALSE(q.push(make_packet(1, 2, 1500), 0));  // 4500 > 3000
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.marks(), 0u);
  EXPECT_EQ(q.size_packets(), 2u);
  const auto p = q.pop(from_millis(7));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->seq, 0u);  // FIFO
  EXPECT_EQ(q.last_sojourn(), from_millis(7));
  EXPECT_EQ(q.max_depth_bytes(), 3000u);
}

TEST(CoDelControlLawTest, DropSpacingShrinksAsSqrtOfCount) {
  // Keep the sojourn pinned far above target and record when each drop
  // happens: the control law schedules drop n at interval/sqrt(n) after
  // its predecessor, so the gaps must shrink.
  CoDelQueue q({}, 64 * 1024 * 1024);
  sim::Time now = 0;
  std::uint64_t pushed = 0;
  std::vector<sim::Time> drop_times;
  std::uint64_t last_drops = 0;
  for (int i = 0; i < 3000; ++i) {
    now += from_millis(1);
    // Overload 3:1 -> the standing queue (and sojourn) only grows.
    for (int k = 0; k < 3; ++k) q.push(make_packet(1, pushed++, 1500), now);
    (void)q.pop(now);
    if (q.drops() != last_drops) {
      drop_times.push_back(now);
      last_drops = q.drops();
    }
  }
  ASSERT_GE(drop_times.size(), 8u);
  // No drop before one full interval (100 ms) of above-target sojourn.
  EXPECT_GE(drop_times.front(), from_millis(100));
  // Gaps shrink: the 2nd gap ~ interval/sqrt(2), the 7th ~ interval/sqrt(7).
  const sim::Time gap_early = drop_times[2] - drop_times[1];
  const sim::Time gap_late = drop_times[7] - drop_times[6];
  EXPECT_LT(gap_late, gap_early);
  EXPECT_LE(gap_early, from_millis(100));
}

TEST(CoDelEcnTest, MarksEctInsteadOfDropping) {
  QdiscConfig cfg;
  cfg.ecn = true;
  CoDelQueue q(cfg, 64 * 1024 * 1024);
  sim::Time now = 0;
  std::uint64_t pushed = 0, popped = 0, ce = 0;
  for (int i = 0; i < 2000; ++i) {
    now += from_millis(1);
    for (int k = 0; k < 3; ++k) {
      Packet p = make_packet(1, pushed++, 1500);
      p.ect = true;
      q.push(std::move(p), now);
    }
    if (const auto out = q.pop(now)) {
      ++popped;
      ce += out->ce;
    }
  }
  EXPECT_EQ(q.drops(), 0u);  // every shed became a mark
  EXPECT_GT(q.marks(), 8u);
  EXPECT_EQ(ce, q.marks());  // every mark was delivered, CE set
  EXPECT_EQ(popped + q.size_packets(), pushed);
}

// RED's drop-stream seed before make_qdisc forks it per link.
constexpr std::uint64_t kRedSeed = 0x8ed;

// RED's thresholds for the 200-packet buffer both tests use: 30 and 90
// full-size packets.
constexpr std::uint64_t kRedCapacity = 200 * 1500;
const double kRedMinTh = kRedMinFraction * static_cast<double>(kRedCapacity);
const double kRedMaxTh = kRedMaxFraction * static_cast<double>(kRedCapacity);

TEST(RedQueueTest, ThresholdsGateEarlyDrops) {
  RedQueue q({}, kRedCapacity, kRedSeed);
  // Below min: every arrival accepted, count stays reset.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(q.push(make_packet(1, i, 1500), 0));
  }
  EXPECT_EQ(q.drops(), 0u);
  EXPECT_LT(q.avg_bytes(), kRedMinTh);
  // Hold the depth at 60 packets, between the thresholds, long enough for
  // the slow EWMA to settle there: some arrivals are shed early, and none
  // can be a tail drop.
  std::uint64_t accepted = 10;
  for (int i = 10; i < 3000; ++i) {
    accepted += q.push(make_packet(1, i, 1500), 0);
    while (q.size_packets() > 60) (void)q.pop(0);
  }
  EXPECT_GT(q.drops(), 0u);
  EXPECT_LT(accepted, 3000u);
  EXPECT_GT(q.avg_bytes(), kRedMinTh);
  EXPECT_LT(q.avg_bytes(), kRedMaxTh);
  // Hold the depth at 150 packets, above max but clear of the 200-packet
  // buffer, until the average passes max.
  for (int i = 3000; i < 4000; ++i) {
    (void)q.push(make_packet(1, i, 1500), 0);
    while (q.size_packets() > 150) (void)q.pop(0);
  }
  EXPECT_GT(q.avg_bytes(), kRedMaxTh);
  // Past max every arrival is dropped while the buffer still has room:
  // RED's forced drop, not a tail drop.
  const std::uint64_t drops_at_max = q.drops();
  for (int i = 4000; i < 4020; ++i) {
    ASSERT_LT(q.size_packets(), 200u);
    EXPECT_FALSE(q.push(make_packet(1, i, 1500), 0));  // forced region
  }
  EXPECT_EQ(q.drops(), drops_at_max + 20);
}

TEST(RedQueueTest, EcnMarksEarlyButStillDropsAtMax) {
  QdiscConfig cfg;
  cfg.ecn = true;
  RedQueue q(cfg, kRedCapacity, kRedSeed);
  std::uint64_t popped = 0;
  const auto push_ect = [&](int i, std::uint64_t hold_packets) {
    Packet p = make_packet(1, i, 1500);
    p.ect = true;
    const bool accepted = q.push(std::move(p), 0);
    while (q.size_packets() > hold_packets) {
      (void)q.pop(0);
      ++popped;
    }
    return accepted;
  };
  // Between the thresholds: early sheds become CE marks, and a 60-packet
  // depth leaves no room for a tail drop.
  for (int i = 0; i < 3000; ++i) (void)push_ect(i, 60);
  EXPECT_GT(q.marks(), 0u);
  EXPECT_EQ(q.drops(), 0u);
  // Hold the depth at 150 packets until the average passes max.
  for (int i = 3000; i < 4000; ++i) (void)push_ect(i, 150);
  EXPECT_GT(q.avg_bytes(), kRedMaxTh);
  // Above max an ECT arrival is dropped, not marked, while the buffer
  // still has room (RFC 3168 Sec. 19.1): forced drops above max still drop.
  const std::uint64_t drops_at_max = q.drops();
  const std::uint64_t marks_at_max = q.marks();
  for (int i = 4000; i < 4020; ++i) {
    ASSERT_LT(q.size_packets(), 200u);
    EXPECT_FALSE(push_ect(i, 150));
  }
  EXPECT_EQ(q.drops(), drops_at_max + 20);
  EXPECT_EQ(q.marks(), marks_at_max);
  // Every early mark was enqueued: marks live in the queue, not the void.
  EXPECT_EQ(popped + q.size_packets() + q.drops(), 4020u);
}

TEST(FqCoDelTest, IsolatesSparseFlowFromBulkFlow) {
  FqCoDelQueue q({}, 64 * 1024 * 1024);
  // Two flow ids in distinct buckets.
  const std::uint32_t bulk = 1;
  std::uint32_t sparse = 2;
  while (q.bucket_of(sparse) == q.bucket_of(bulk)) ++sparse;

  sim::Time now = 0;
  std::uint64_t bulk_seq = 0, sparse_seq = 0;
  std::uint64_t sparse_delivered = 0;
  sim::Time worst_sparse_sojourn = 0;
  for (int i = 0; i < 2000; ++i) {
    now += from_millis(1);
    // Bulk floods 3:1; the sparse flow sends one small packet every 10 ms.
    for (int k = 0; k < 3; ++k) {
      q.push(make_packet(bulk, bulk_seq++, 1500), now);
    }
    if (i % 10 == 0) q.push(make_packet(sparse, sparse_seq++, 200), now);
    if (const auto out = q.pop(now)) {
      if (out->flow_id == sparse) {
        ++sparse_delivered;
        worst_sparse_sojourn = std::max(worst_sparse_sojourn,
                                        q.last_sojourn());
      }
    }
  }
  // The sparse flow rides the new-flow priority list: everything it sent
  // is delivered (or still briefly queued), nothing dropped, and its
  // worst sojourn stays an order of magnitude under the bulk backlog.
  EXPECT_GE(sparse_delivered + q.size_packets(), sparse_seq);
  EXPECT_GT(q.drops(), 0u);              // the bulk flow is being policed
  EXPECT_EQ(sparse_delivered, sparse_seq);
  EXPECT_LT(worst_sparse_sojourn, from_millis(20));
}

// FQ-CoDel over a single flow id is CoDel: one bucket, one state machine,
// and the DRR scheduler only rotates it. Seeded random traces (mixed sizes,
// ECT and non-ECT packets, load phases that build and drain a standing
// queue, a buffer small enough to overflow) must agree packet for packet.
class FqCoDelOneFlowIsCoDel : public ::testing::TestWithParam<bool> {};

TEST_P(FqCoDelOneFlowIsCoDel, PacketForPacket) {
  QdiscConfig cfg;
  cfg.ecn = GetParam();
  std::uint64_t pops = 0, drops = 0, marks = 0, refused = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng(seed);
    const auto capacity =
        static_cast<std::uint64_t>(rng.uniform_int(20'000, 200'000));
    CoDelQueue codel(cfg, capacity);
    FqCoDelQueue fq(cfg, capacity);
    sim::Time now = 0;
    std::uint64_t seq = 0;
    for (int step = 0; step < 3000; ++step) {
      // 600-step phases alternate overload (~3 arrivals per departure)
      // with drain, so the state machine enters and leaves dropping.
      const bool overload = (step / 600) % 2 == 0;
      now += rng.uniform_int(0, 2 * kMillisecond);
      const auto arrivals = rng.uniform_int(0, overload ? 5 : 1);
      for (std::int64_t k = 0; k < arrivals; ++k) {
        Packet p = make_packet(
            7, seq++, static_cast<std::uint32_t>(rng.uniform_int(60, 1500)));
        p.ect = rng.bernoulli(0.7);
        const bool accepted = codel.push(p, now);
        ASSERT_EQ(fq.push(std::move(p), now), accepted) << "seq " << seq;
        refused += accepted ? 0 : 1;
      }
      const auto a = codel.pop(now);
      const auto b = fq.pop(now);
      ASSERT_EQ(b.has_value(), a.has_value()) << "step " << step;
      if (a) {
        ++pops;
        ASSERT_EQ(b->seq, a->seq);
        ASSERT_EQ(b->ce, a->ce);
      }
      ASSERT_EQ(fq.drops(), codel.drops());
      ASSERT_EQ(fq.marks(), codel.marks());
      ASSERT_EQ(fq.size_bytes(), codel.size_bytes());
      ASSERT_EQ(fq.max_depth_bytes(), codel.max_depth_bytes());
      ASSERT_EQ(fq.last_sojourn(), codel.last_sojourn());
    }
    drops += codel.drops();
    marks += codel.marks();
  }
  // The traces really exercise overflow, CoDel drops and (with ECN) marks.
  EXPECT_GT(pops, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(drops, refused);
  if (cfg.ecn) {
    EXPECT_GT(marks, 0u);
  } else {
    EXPECT_EQ(marks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Ecn, FqCoDelOneFlowIsCoDel, ::testing::Bool());

TEST(QdiscSpecTest, ParsesKindsAndEcnSuffix) {
  QdiscConfig c;
  ASSERT_TRUE(parse_qdisc_spec("codel+ecn", &c));
  EXPECT_EQ(c.kind, QdiscKind::kCoDel);
  EXPECT_TRUE(c.ecn);
  ASSERT_TRUE(parse_qdisc_spec("fq_codel", &c));
  EXPECT_EQ(c.kind, QdiscKind::kFqCoDel);
  EXPECT_FALSE(c.ecn);
  ASSERT_TRUE(parse_qdisc_spec("red", &c));
  EXPECT_EQ(c.kind, QdiscKind::kRed);
  ASSERT_TRUE(parse_qdisc_spec("droptail", &c));
  EXPECT_EQ(c.kind, QdiscKind::kDropTail);
  EXPECT_FALSE(parse_qdisc_spec("codel+foo", &c));
  EXPECT_FALSE(parse_qdisc_spec("pie", &c));
}

TEST(LinkQdiscTest, EcnMarksSurfaceInLinkLedger) {
  sim::Simulator simr;
  Link::Config cfg;
  cfg.rate_bps = 12e6;
  // Deep buffer: ECN marking is open-loop here (nothing slows down), so
  // the backlog keeps growing — the buffer must outlast the run.
  cfg.queue_bytes = 16 << 20;
  cfg.qdisc.kind = QdiscKind::kCoDel;
  cfg.qdisc.ecn = true;
  CountingSink sink;
  Link link(&simr, cfg, &sink);
  // 2x overload of ECT traffic for 4 s: CoDel sheds, ECN converts every
  // shed into a delivered CE mark.
  for (int i = 0; i < 8000; ++i) {
    simr.schedule_at(i * (kMillisecond / 2), [&link, i] {
      Packet p = make_packet(1, i, 1500);
      p.ect = true;
      link.send(std::move(p));
    });
  }
  simr.run();
  EXPECT_GT(link.marked_packets(), 0u);
  EXPECT_EQ(link.dropped_packets(), 0u);
  // Conservation with marks: marked packets are delivered, not lost.
  EXPECT_EQ(link.offered_packets(),
            link.dropped_packets() + link.delivered_packets() +
                link.queue_packets() + link.in_transit_packets());
  EXPECT_LE(link.marked_packets(), link.delivered_packets());
}

}  // namespace
}  // namespace fiveg::net
