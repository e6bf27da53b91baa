#include "tcp/rtt_estimator.h"

#include <algorithm>
#include <cstdlib>

namespace fiveg::tcp {

void RttEstimator::add_sample(sim::Time now, sim::Time rtt) {
  if (rtt <= 0) return;
  if (srtt_ == 0) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
  } else {
    // RFC 6298: alpha = 1/8, beta = 1/4.
    rttvar_ = (3 * rttvar_ + std::abs(srtt_ - rtt)) / 4;
    srtt_ = (7 * srtt_ + rtt) / 8;
  }

  // Windowed min via a monotonic deque.
  while (!min_candidates_.empty() && min_candidates_.back().second >= rtt) {
    min_candidates_.pop_back();
  }
  min_candidates_.emplace_back(now, rtt);
  while (!min_candidates_.empty() &&
         min_candidates_.front().first + kMinRttWindow < now) {
    min_candidates_.pop_front();
  }
}

sim::Time RttEstimator::rto() const noexcept {
  if (srtt_ == 0) return kInitialRto * backoff_;
  const sim::Time base = srtt_ + std::max<sim::Time>(4 * rttvar_,
                                                     sim::kMillisecond);
  return std::max(kMinRto, base) * backoff_;
}

sim::Time RttEstimator::min_rtt() const noexcept {
  return min_candidates_.empty() ? 0 : min_candidates_.front().second;
}

}  // namespace fiveg::tcp
