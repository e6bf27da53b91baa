// The trace-driven radio power simulator (the paper's own methodology for
// Table 4): replay a traffic trace through an RRC/DRX state machine under
// a chosen power-management model and integrate the radio's energy.
#pragma once

#include "energy/policies.h"
#include "energy/power_model.h"
#include "energy/traffic_trace.h"
#include "measure/timeseries.h"
#include "ran/rrc.h"

namespace fiveg::energy {

/// Fixed integration step of the replay loop.
inline constexpr sim::Time kReplayStep = 10 * sim::kMillisecond;
/// pwrStrip's sampling cadence: one power-trace point per period.
inline constexpr sim::Time kPowerSamplePeriod = 100 * sim::kMillisecond;
/// Dynamic switch: escalate to NR when the LTE backlog exceeds this much
/// LTE airtime; the upgrade costs ran::kLteToNr (T4r_5r).
inline constexpr sim::Time kDynBacklogThreshold = 500 * sim::kMillisecond;

/// Machine parameters: the NR DRX timers and the serving rates. The LTE
/// timers are ran::lte_drx() and the power points lte_radio_power() and
/// nr_radio_power().
struct ReplayConfig {
  ran::DrxConfig nr_drx = ran::nr_nsa_drx();
  double lte_rate_bps = 130e6;  // daytime LTE serving rate
  double nr_rate_bps = 880e6;   // daytime NR serving rate
};

/// Outcome of one replay.
struct EnergyResult {
  double radio_joules = 0.0;
  sim::Time completion = 0;  // when the last byte was served
  sim::Time duration = 0;    // until the machine returned to idle
  measure::TimeSeries power_trace_mw;  // radio draw at pwrStrip cadence
  double mean_radio_mw = 0.0;
  double served_bits = 0.0;
  // Per-phase residency, one kReplayStep per loop iteration. Their sum
  // covers every integration step, i.e. equals `duration + kReplayStep`
  // (the loop runs t = 0..duration inclusive) — an invariant
  // fault::InvariantChecker audits.
  sim::Time residency_idle = 0;
  sim::Time residency_promoting = 0;
  sim::Time residency_connected = 0;

  /// Radio energy per served bit, microjoules.
  [[nodiscard]] double microjoules_per_bit() const noexcept {
    return served_bits > 0 ? radio_joules * 1e6 / served_bits : 0.0;
  }
};

/// Deterministic fixed-step replay engine.
class RrcPowerMachine {
 public:
  explicit RrcPowerMachine(ReplayConfig config = {}) : config_(config) {}

  /// Replays `trace` under `model`; runs until the tail fully drains.
  [[nodiscard]] EnergyResult replay(const TrafficTrace& trace,
                                    RadioModel model) const;

  [[nodiscard]] const ReplayConfig& config() const noexcept { return config_; }

 private:
  ReplayConfig config_;
};

}  // namespace fiveg::energy
