// iperf3-style active measurement sessions: TCP/UDP flows bound to a
// PathNetwork with both endpoints wired up — the workhorses of the
// throughput experiments (Figs. 7-9).
#pragma once

#include <cstdint>
#include <memory>

#include "net/packet.h"
#include "net/path.h"
#include "net/udp.h"
#include "sim/simulator.h"
#include "tcp/tcp_receiver.h"
#include "tcp/tcp_sender.h"

namespace fiveg::app {

/// Fan-out sinks at both ends of a path, so several flows (and cross
/// traffic) can coexist; each endpoint filters by flow id. Construct one
/// per path, before any session.
struct PathFanout {
  explicit PathFanout(net::PathNetwork* path) {
    path->attach_a(&a);
    path->attach_b(&b);
  }
  net::FanoutSink a;
  net::FanoutSink b;
};

/// A TCP connection strung across a path: A-side sender, B-side receiver.
/// (The paper's downlink, cloud -> UE, maps to building the path with the
/// server at A; orientation is the caller's choice.)
class TcpSession {
 public:
  TcpSession(sim::Simulator* simulator, net::PathNetwork* path,
             PathFanout* fanout, tcp::TcpConfig config,
             std::uint32_t flow_id = 1);

  [[nodiscard]] tcp::TcpSender& sender() noexcept { return *sender_; }
  [[nodiscard]] tcp::TcpReceiver& receiver() noexcept { return *receiver_; }
  [[nodiscard]] const tcp::TcpSender& sender() const noexcept {
    return *sender_;
  }
  [[nodiscard]] const tcp::TcpReceiver& receiver() const noexcept {
    return *receiver_;
  }

 private:
  std::unique_ptr<tcp::TcpSender> sender_;
  std::unique_ptr<tcp::TcpReceiver> receiver_;
};

/// Result of a UDP load test.
struct UdpTestResult {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  double loss_ratio = 0.0;
  double mean_throughput_bps = 0.0;
};

/// UDP load test: sends at `rate_bps` from A to B and reports
/// receiver-side statistics. The path may carry other traffic too.
class UdpTest {
 public:
  /// Flow id of the test's datagrams.
  static constexpr std::uint32_t kFlowId = 77;

  UdpTest(sim::Simulator* simulator, net::PathNetwork* path,
          PathFanout* fanout, double rate_bps);

  /// Starts now; the source stops after `duration`.
  void start(sim::Time duration);

  /// Statistics over [from, to].
  [[nodiscard]] UdpTestResult result(sim::Time from, sim::Time to) const;
  [[nodiscard]] const net::UdpSink& sink() const noexcept { return sink_; }

 private:
  net::UdpSink sink_;
  net::UdpSource source_;
};

}  // namespace fiveg::app
