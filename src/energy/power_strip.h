// pwrStrip: the paper's custom energy logger, reading "battery" power at a
// 100 ms cadence and attributing it across components. Here it composes a
// radio replay with the component power model to produce the Fig. 21
// breakdowns, Fig. 22 efficiency curves and the Fig. 23 trace.
#pragma once

#include "energy/power_model.h"
#include "energy/rrc_power_machine.h"

namespace fiveg::energy {

/// Device-level energy split over one scenario.
struct DeviceEnergyBreakdown {
  double system_j = 0.0;
  double screen_j = 0.0;
  double app_j = 0.0;
  double radio_j = 0.0;

  [[nodiscard]] double total_j() const noexcept {
    return system_j + screen_j + app_j + radio_j;
  }
  [[nodiscard]] double radio_share() const noexcept {
    const double t = total_j();
    return t > 0 ? radio_j / t : 0.0;
  }
  /// Mean total power over `duration`, milliwatts.
  [[nodiscard]] double mean_power_mw(sim::Time duration) const noexcept {
    return duration > 0 ? total_j() * 1000.0 / sim::to_seconds(duration) : 0.0;
  }
};

/// Measures a fixed-duration app session: the app's downlink demand is
/// replayed on the given radio model and non-radio components burn at
/// their constant draws (kSystemMw, kScreenMw, the app's app_mw) for the
/// whole session.
[[nodiscard]] DeviceEnergyBreakdown measure_app_session(
    const RrcPowerMachine& machine, RadioModel model, const AppProfile& app,
    sim::Time duration);

/// Energy efficiency of a saturated transfer lasting `transfer_time`
/// (Fig. 22): radio microjoules per delivered bit, tail included.
[[nodiscard]] double saturated_energy_per_bit_uj(
    const RrcPowerMachine& machine, RadioModel model,
    sim::Time transfer_time);

}  // namespace fiveg::energy
