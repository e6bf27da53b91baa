// Shared TCP configuration for sender/receiver pairs. Mirrors the paper's
// setup: 25 MB receive buffer (big enough to never bind), standard MSS, and
// a pluggable congestion controller.
#pragma once

#include <cstdint>

#include "tcp/congestion_control.h"

namespace fiveg::tcp {

/// Standard Ethernet-path MSS.
inline constexpr std::uint32_t kMssBytes = 1460;
/// IP+TCP header on data packets; ACKs are bare.
inline constexpr std::uint32_t kHeaderBytes = 40;
/// iperf3 -w 25M: big enough never to bind.
inline constexpr std::uint64_t kReceiveWindowBytes = 25ull * 1024 * 1024;
/// Duplicate ACKs that trigger fast retransmit (RFC 5681).
inline constexpr int kDupackThreshold = 3;

/// Per-connection parameters.
struct TcpConfig {
  CcAlgo algo = CcAlgo::kCubic;
  // ECN (RFC 3168): when both endpoints enable it, the sender stamps data
  // packets ECT, the receiver echoes CE marks as ECE, and the sender backs
  // off once per RTT without any packet having been lost.
  bool ecn = false;
  // Deterministic-start hint (BBR only): skip slow start entirely.
  CcSeed seed{};
};

}  // namespace fiveg::tcp
