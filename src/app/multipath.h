// ATSSS/MPTCP-style multipath transfer: one logical byte stream split
// across the 5G and 4G paths. The paper names dynamic 4G/5G switching as
// "a use case for MPTCP ... left for future exploration" — this is that
// exploration: a pull-based chunk scheduler that is rate-proportional by
// construction and rides out single-path outages (hand-offs).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "app/iperf.h"
#include "net/path.h"
#include "sim/simulator.h"
#include "tcp/tcp_endpoint.h"

namespace fiveg::app {

/// One logical transfer over two TCP subflows.
class MultipathTransfer {
 public:
  struct Config {
    tcp::TcpConfig transport;
  };

  /// Subflow A rides `path_a` (e.g. the 5G path), subflow B `path_b`.
  MultipathTransfer(sim::Simulator* simulator, net::PathNetwork* path_a,
                    PathFanout* fanout_a, net::PathNetwork* path_b,
                    PathFanout* fanout_b, Config config);
  ~MultipathTransfer();

  MultipathTransfer(const MultipathTransfer&) = delete;
  MultipathTransfer& operator=(const MultipathTransfer&) = delete;

  /// Transfers `bytes`; `done` fires when every chunk is delivered.
  void transfer(std::uint64_t bytes, std::function<void()> done);

  /// Bytes completed per subflow (A, B).
  [[nodiscard]] std::uint64_t bytes_via_a() const;
  [[nodiscard]] std::uint64_t bytes_via_b() const;
  [[nodiscard]] bool finished() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fiveg::app
