// RTT estimation: RFC 6298 smoothed RTT / RTO plus a sliding-window
// minimum (BBR's RTprop and Vegas' baseRTT rely on a fresh minimum).
#pragma once

#include <deque>
#include <utility>

#include "sim/time.h"

namespace fiveg::tcp {

/// RFC 6298 floor on the retransmission timeout (Linux's 200 ms).
inline constexpr sim::Time kMinRto = 200 * sim::kMillisecond;
/// RTO before the first RTT sample (RFC 6298 Sec. 2.1).
inline constexpr sim::Time kInitialRto = sim::kSecond;
/// Sliding window of the minimum-RTT filter (BBR's RTprop window).
inline constexpr sim::Time kMinRttWindow = 10 * sim::kSecond;

/// RFC 6298 estimator with a windowed minimum.
class RttEstimator {
 public:
  /// Feeds one RTT sample taken at time `now`.
  void add_sample(sim::Time now, sim::Time rtt);

  [[nodiscard]] bool has_sample() const noexcept { return srtt_ > 0; }
  [[nodiscard]] sim::Time smoothed_rtt() const noexcept { return srtt_; }
  [[nodiscard]] sim::Time rtt_var() const noexcept { return rttvar_; }

  /// Current retransmission timeout (clamped below by kMinRto).
  [[nodiscard]] sim::Time rto() const noexcept;

  /// Minimum RTT within the sliding window (0 before any sample).
  [[nodiscard]] sim::Time min_rtt() const noexcept;

  /// Exponential timer backoff after consecutive timeouts.
  void backoff() noexcept { backoff_ = std::min(backoff_ * 2, 64); }
  void reset_backoff() noexcept { backoff_ = 1; }

 private:
  sim::Time srtt_ = 0;
  sim::Time rttvar_ = 0;
  int backoff_ = 1;
  // Monotonic deque of (time, rtt) candidates for the windowed min.
  std::deque<std::pair<sim::Time, sim::Time>> min_candidates_;
};

}  // namespace fiveg::tcp
