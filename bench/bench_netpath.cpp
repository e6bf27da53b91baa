// Packet-path layer benchmark: bulk TCP over the 5G-day downlink
// core::Testbed (the 6-hop metro path behind the EPC and RAN hops, ambient
// cross traffic at the wireline bottleneck), one app::TcpSession per
// congestion-control algorithm, started 10 ms apart, for 1 s of simulated
// time. This is the layer the campaign's TCP figures spend their time in:
// net::Link transmit and delivery events, TCP pacing and ACK clocking, and
// RTO timers re-armed on every ACK.
//
// Each rep builds the testbed afresh and times Simulator::run_until alone.
// One more rep runs under an obs scope, because the simulator tracks its
// queue-depth high-water mark and counts events (sim.events) only there;
// its wall time is not reported. Under the scope no hop cuts through, so
// its count is what the event-per-transmit path executes. The checksum
// folds the model state only: every link ledger, the endpoint byte counts
// and each flow's TCP state (FNV-1a). The physics is deterministic, so it
// must repeat bit-exactly across reps and with and without the scope, and
// the binary exits 1 when it does not. Event totals are reported beside
// it, not folded in: how many events a run executes is an implementation
// choice (idle hops elide their transmit events), what they compute is
// not.
//
// Prints one JSON document on stdout:
//   {"reps": ..., "flows": ..., "sim_seconds": ..., "events_per_rep": ...,
//    "counted_events_per_rep": ..., "cancelled_per_rep": ...,
//    "events_per_s_median": ...,
//    "hop_deliveries_per_s_median": ..., "heap_allocs_per_event": ...,
//    "queue_depth_hwm": ..., "netpath_checksum": "..."}
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "app/iperf.h"
#include "bench_common.h"
#include "core/scenario.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/callable.h"
#include "sim/simulator.h"
#include "tcp/congestion_control.h"

namespace {

using namespace fiveg;  // NOLINT: benchmark file brevity
using bench::Clock;

constexpr int kReps = 5;
constexpr sim::Time kDuration = sim::kSecond;
constexpr std::uint64_t kTestbedSeed = 0x7cb0b01c;
constexpr tcp::CcAlgo kAlgos[] = {tcp::CcAlgo::kBbr, tcp::CcAlgo::kCubic,
                                  tcp::CcAlgo::kReno, tcp::CcAlgo::kVegas,
                                  tcp::CcAlgo::kVeno};

struct RepResult {
  double seconds = 0;
  std::uint64_t events = 0;      // executed
  std::uint64_t deliveries = 0;  // packets handed on by all links
  std::uint64_t cancelled = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t depth_hwm = 0;
  std::uint64_t checksum = 0;
};

RepResult run_rep() {
  sim::Simulator simr;
  core::Testbed bed(&simr, core::TestbedOptions{}, kTestbedSeed);
  bed.start_cross_traffic(kDuration);
  std::vector<std::unique_ptr<app::TcpSession>> flows;
  for (std::size_t i = 0; i < std::size(kAlgos); ++i) {
    tcp::TcpConfig cfg;
    cfg.algo = kAlgos[i];
    flows.push_back(std::make_unique<app::TcpSession>(
        &simr, &bed.path(), &bed.fanout(), cfg,
        static_cast<std::uint32_t>(i + 1)));
    simr.schedule_in(static_cast<sim::Time>(i) * 10 * sim::kMillisecond,
                     [s = &flows.back()->sender()] { s->start_bulk(); });
  }

  RepResult out;
  const std::uint64_t allocs_before = sim::Callable::heap_fallbacks();
  const auto start = Clock::now();
  simr.run_until(kDuration);
  out.seconds = bench::seconds_since(start);
  out.events = simr.executed_events();
  out.scheduled = simr.scheduled_total();
  out.heap_allocs = sim::Callable::heap_fallbacks() - allocs_before;
  out.depth_hwm = simr.queue_depth_high_water();

  bench::Fnv sum;
  net::PathNetwork& path = bed.path();
  for (std::size_t i = 0; i < path.hop_count(); ++i) {
    for (const net::Link* l : {&path.forward_link(i), &path.reverse_link(i)}) {
      out.deliveries += l->delivered_packets();
      sum.add(l->offered_packets());
      sum.add(l->delivered_packets());
      sum.add(l->delivered_bytes());
      sum.add(l->dropped_packets());
      sum.add(l->queue_packets());
      sum.add(l->in_transit_packets());
    }
  }
  for (const auto& f : flows) {
    sum.add(f->sender().bytes_acked());
    sum.add(f->sender().retransmissions());
    sum.add(f->sender().timeouts());
    sum.add(f->receiver().bytes_received());
  }
  out.cancelled = simr.cancelled_total();
  out.checksum = sum.h;
  return out;
}

}  // namespace

int main() {
  std::vector<double> rate;
  std::vector<double> hop_rate;
  std::vector<std::uint64_t> sums;
  RepResult last;
  for (int r = 0; r < kReps; ++r) {
    last = run_rep();
    rate.push_back(static_cast<double>(last.events) / last.seconds);
    hop_rate.push_back(static_cast<double>(last.deliveries) / last.seconds);
    sums.push_back(last.checksum);
  }
  RepResult observed;
  std::uint64_t counted = 0;
  {
    obs::MetricsRegistry registry;
    const obs::ScopedObs scope(nullptr, &registry);
    observed = run_rep();
    counted = registry.counter("sim.events").value();
  }
  sums.push_back(observed.checksum);
  const bool exact = std::all_of(sums.begin(), sums.end(),
                                 [&](std::uint64_t s) { return s == sums[0]; });

  std::printf(
      "{\"reps\": %d, \"flows\": %zu, \"sim_seconds\": %.1f, "
      "\"events_per_rep\": %" PRIu64 ", \"counted_events_per_rep\": %" PRIu64
      ", \"cancelled_per_rep\": %" PRIu64
      ", \"events_per_s_median\": %.0f, "
      "\"hop_deliveries_per_s_median\": %.0f, "
      "\"heap_allocs_per_event\": %.4f, \"queue_depth_hwm\": %" PRIu64
      ", \"netpath_checksum\": \"%016" PRIx64 "\"}\n",
      kReps, std::size(kAlgos), sim::to_seconds(kDuration), last.events,
      counted, last.cancelled, bench::median(rate),
      bench::median(hop_rate),
      static_cast<double>(last.heap_allocs) /
          static_cast<double>(last.scheduled),
      observed.depth_hwm, sums[0]);
  if (!exact) {
    std::fprintf(stderr, "bench_netpath: checksum differs between reps\n");
    return 1;
  }
  return 0;
}
