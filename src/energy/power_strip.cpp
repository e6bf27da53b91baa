#include "energy/power_strip.h"

#include <algorithm>

namespace fiveg::energy {

DeviceEnergyBreakdown measure_app_session(const RrcPowerMachine& machine,
                                          RadioModel model,
                                          const AppProfile& app,
                                          sim::Time duration) {
  // The app's traffic: a steady demand chunked per 100 ms, clipped to what
  // the serving RAT can move (the Download app saturates the link).
  const double rate_cap = model == RadioModel::kLteOnly
                              ? machine.config().lte_rate_bps
                              : machine.config().nr_rate_bps;
  const double rate = std::min(app.dl_demand_bps, rate_cap);
  TrafficTrace trace;
  const sim::Time chunk = 100 * sim::kMillisecond;
  for (sim::Time at = 0; at < duration; at += chunk) {
    trace.push_back(
        {at, static_cast<std::uint64_t>(rate / 8.0 * sim::to_seconds(chunk))});
  }
  const EnergyResult radio = machine.replay(trace, model);

  const double secs = sim::to_seconds(duration);
  DeviceEnergyBreakdown out;
  out.system_j = kSystemMw / 1000.0 * secs;
  out.screen_j = kScreenMw / 1000.0 * secs;
  out.app_j = app.app_mw / 1000.0 * secs;
  // Attribute only the session window of radio energy (tail past the end
  // of the fixed-length session belongs to the session per the paper's
  // methodology — all Fig. 21 runs last the same time).
  out.radio_j = radio.radio_joules *
                std::min(1.0, secs / sim::to_seconds(
                                         std::max<sim::Time>(radio.duration, 1)));
  return out;
}

double saturated_energy_per_bit_uj(const RrcPowerMachine& machine,
                                   RadioModel model, sim::Time transfer_time) {
  const double rate = model == RadioModel::kLteOnly
                          ? machine.config().lte_rate_bps
                          : machine.config().nr_rate_bps;
  const auto bytes = static_cast<std::uint64_t>(
      rate / 8.0 * sim::to_seconds(transfer_time));
  const EnergyResult r =
      machine.replay(file_transfer_trace(std::max<std::uint64_t>(bytes, 1)),
                     model);
  return r.microjoules_per_bit();
}

}  // namespace fiveg::energy
