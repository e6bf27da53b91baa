// Shared TCP configuration for sender/receiver pairs. Mirrors the paper's
// setup: 25 MB receive buffer (big enough to never bind), standard MSS, and
// a pluggable congestion controller.
#pragma once

#include <cstdint>

#include "sim/time.h"
#include "tcp/congestion_control.h"

namespace fiveg::tcp {

/// Per-connection parameters.
struct TcpConfig {
  CcAlgo algo = CcAlgo::kCubic;
  std::uint32_t mss_bytes = 1460;
  std::uint32_t header_bytes = 40;   // IP+TCP on data packets; ACKs are bare
  std::uint64_t receive_window_bytes = 25ull * 1024 * 1024;  // iperf3 -w 25M
  sim::Time min_rto = 200 * sim::kMillisecond;
  sim::Time initial_rto = sim::kSecond;
  int dupack_threshold = 3;
  // ECN (RFC 3168): when both endpoints enable it, the sender stamps data
  // packets ECT, the receiver echoes CE marks as ECE, and the sender backs
  // off once per RTT without any packet having been lost.
  bool ecn = false;
  // Deterministic-start hint (BBR only): skip slow start entirely.
  CcSeed seed{};
};

}  // namespace fiveg::tcp
