// Smartphone power model: per-component draws and per-radio-state draws.
// Calibrated against the paper's Fig. 21 (the 5G module accounts for
// ~55% of total power, 1.8x the screen; 2-3x the 4G module) and Fig. 22
// (energy-per-bit at saturation: 5G ~ 1/4 of 4G).
#pragma once

#include "radio/carrier.h"
#include "ran/drx.h"

namespace fiveg::energy {

// Non-radio component draws, milliwatts (the app's own draw is
// AppProfile::app_mw): the Android base with the screen off in airplane
// mode, and the screen at max brightness.
inline constexpr double kSystemMw = 300.0;
inline constexpr double kScreenMw = 1250.0;

/// Radio-state draws for one RAT, milliwatts.
struct RadioPower {
  double paging_sleep_mw;  // RRC_IDLE deep sleep
  double paging_awake_mw;  // RRC_IDLE paging occasion
  double tail_awake_mw;    // RRC_CONNECTED, no data, receiver on
  double tail_sleep_mw;    // RRC_CONNECTED, C-DRX sleeping
  double promotion_mw;     // during RRC promotion signalling
  double tx_rx_base_mw;    // actively moving data, base
  double per_mbps_mw;      // marginal draw per Mbps of throughput

  /// Draw while transferring at `mbps`.
  [[nodiscard]] double active_mw(double mbps) const noexcept {
    return tx_rx_base_mw + per_mbps_mw * mbps;
  }
};

/// 4G LTE radio (Snapdragon-class modem).
[[nodiscard]] RadioPower lte_radio_power() noexcept;

/// 5G NR NSA radio. The paper attributes the high draw to wide-band
/// converters (100 vs 20 MHz), 4x4 MIMO and the non-integrated plug-in
/// modem of early 5G phones.
[[nodiscard]] RadioPower nr_radio_power() noexcept;

/// Draw of a radio in a DRX/RRC activity state at a given throughput.
[[nodiscard]] double radio_draw_mw(const RadioPower& p,
                                   ran::RadioActivity activity,
                                   double mbps) noexcept;

/// App-type CPU/GPU draws used by the Fig. 21 experiment.
struct AppProfile {
  const char* name;
  double app_mw;        // compute draw
  double dl_demand_bps; // steady downlink demand while in use
};

/// The paper's four daily applications: Browser, Player, Game, Download.
[[nodiscard]] const AppProfile* daily_apps(int* count) noexcept;

}  // namespace fiveg::energy
