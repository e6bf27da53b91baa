// HARQ retransmission model. The paper verifies that MAC-layer HARQ hides
// essentially all radio losses from TCP: retransmissions top out at 4
// attempts on 4G and 2 on 5G (Fig. 10), far below the 32-attempt limit it
// extracts from the PDSCH configuration — so the TCP anomaly cannot be a
// RAN loss problem.
#pragma once

#include "sim/rng.h"
#include "sim/time.h"

namespace fiveg::ran {

/// Rel-15 PDSCH retransmission threshold: the most transmission attempts
/// one transport block gets, on either RAT.
inline constexpr int kHarqMaxAttempts = 32;

/// HARQ operating point for one carrier. Fig. 10's bars decay by a roughly
/// constant factor per extra attempt, so the model is: the first attempt
/// fails with `first_bler`, and every retransmission fails with
/// `subsequent_bler` (chase combining holds it flat).
struct HarqConfig {
  double first_bler = 0.1;       // BLER of the first transmission attempt
  double subsequent_bler = 0.25; // BLER of each retransmission
  sim::Time retx_delay = sim::from_millis(8);  // per-retransmission delay
};

/// 4G operating point: ~16% first-attempt BLER, attempts observed up to 4.
[[nodiscard]] HarqConfig lte_harq() noexcept;

/// 5G operating point: ~8% first-attempt BLER, attempts observed up to 2;
/// 5G slots shorten the retransmission turnaround.
[[nodiscard]] HarqConfig nr_harq() noexcept;

/// Stateless HARQ process calculator over a config.
class HarqProcess {
 public:
  explicit HarqProcess(HarqConfig config) : config_(config) {}

  /// Number of transmission attempts one transport block needs (1 = no
  /// retransmission); capped at kHarqMaxAttempts.
  [[nodiscard]] int sample_attempts(sim::Rng& rng) const;

  /// P(block needs attempt n), i.e. survives n-1 failures: the curve the
  /// paper plots in Fig. 10 for n >= 2.
  [[nodiscard]] double attempt_probability(int n) const noexcept;

  /// Residual probability of exhausting all attempts (the paper computes
  /// 2.3e-10 for a 50%-loss link; ours is similarly negligible).
  [[nodiscard]] double residual_loss() const noexcept;

  /// Extra MAC latency incurred by `attempts` total transmissions.
  [[nodiscard]] sim::Time latency_for(int attempts) const noexcept;

  [[nodiscard]] const HarqConfig& config() const noexcept { return config_; }

 private:
  /// BLER of attempt n (1-based).
  [[nodiscard]] double bler_at(int n) const noexcept;

  HarqConfig config_;
};

}  // namespace fiveg::ran
