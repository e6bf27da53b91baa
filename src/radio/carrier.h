// Carrier configurations for the two measured networks: 4G LTE at 1.8 GHz
// (FDD, 20 MHz, band b3) and 5G NR at 3.5 GHz (TDD 3:1, 100 MHz, band n78),
// matching the paper's Table 1 and its ISP's Rel-15 TS 38.306 settings.
#pragma once

namespace fiveg::radio {

/// Radio access technology generation.
enum class Rat { kLte, kNr };

/// Static physical-layer parameters of one carrier.
struct CarrierConfig {
  Rat rat = Rat::kNr;
  double freq_ghz = 3.5;       // carrier frequency
  double bandwidth_mhz = 100;  // channel bandwidth
  double dl_fraction = 0.75;   // DL share of airtime (1.0 per direction in FDD)
  int mimo_layers = 4;
  double subcarrier_khz = 30;  // SCS: 15 kHz LTE, 30 kHz NR
  // Effective MAC-available fraction of raw PHY bits (control channels,
  // DMRS, guard periods, coding floor). Calibrated so the peak DL bit-rate
  // matches the paper: 1200.98 Mbps for NR, ~200 Mbps for LTE.
  double overhead = 0.54;
  // Transmit power per resource element at the antenna port, dBm. This is
  // a calibration constant chosen so the outdoor coverage radius matches
  // the paper (~230 m for 5G, ~520 m for 4G in dense urban clutter).
  double tx_re_power_dbm = -5.3;

  /// Peak downlink PHY bit-rate with all PRBs and the top MCS, bits/s.
  [[nodiscard]] double peak_dl_bitrate_bps() const noexcept;

  /// Thermal noise + the UE's 7 dB noise figure per resource element, dBm.
  [[nodiscard]] double noise_per_re_dbm() const noexcept;
};

/// The paper's LTE carrier: 1840-1860 MHz, FDD, 20 MHz, 2x2 MIMO.
[[nodiscard]] CarrierConfig lte1800();

/// The paper's NR carrier: 3500-3600 MHz, TDD 3:1, 100 MHz, 4x4 MIMO.
[[nodiscard]] CarrierConfig nr3500();

}  // namespace fiveg::radio
