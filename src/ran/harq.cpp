#include "ran/harq.h"

#include <algorithm>
#include <cmath>

namespace fiveg::ran {

HarqConfig lte_harq() noexcept {
  // Fig. 10, 4G: ~16% need a 2nd attempt, ~4% a 3rd, ~1% a 4th.
  return HarqConfig{0.16, 0.25, sim::from_millis(8)};
}

HarqConfig nr_harq() noexcept {
  // Fig. 10, 5G: ~8% need a 2nd attempt, ~1% a 3rd, then it is done; 30 kHz
  // slots and faster scheduling shorten the retransmission turnaround.
  return HarqConfig{0.08, 0.125, sim::from_millis(2.5)};
}

double HarqProcess::bler_at(int n) const noexcept {
  return n <= 1 ? config_.first_bler : config_.subsequent_bler;
}

double HarqProcess::attempt_probability(int n) const noexcept {
  if (n <= 1) return 1.0;
  if (n > kHarqMaxAttempts) return 0.0;
  // Needs attempt n iff attempts 1..n-1 all failed.
  double p = 1.0;
  for (int k = 1; k < n; ++k) p *= bler_at(k);
  return p;
}

double HarqProcess::residual_loss() const noexcept {
  double p = 1.0;
  for (int k = 1; k <= kHarqMaxAttempts; ++k) p *= bler_at(k);
  return p;
}

int HarqProcess::sample_attempts(sim::Rng& rng) const {
  int n = 1;
  while (n < kHarqMaxAttempts && rng.bernoulli(bler_at(n))) ++n;
  return n;
}

sim::Time HarqProcess::latency_for(int attempts) const noexcept {
  const int extra = std::max(0, attempts - 1);
  return extra * config_.retx_delay;
}

}  // namespace fiveg::ran
