#include "radio/carrier.h"

#include <cmath>

namespace fiveg::radio {
namespace {

// Spectral efficiency of the top MCS per spatial layer: 256-QAM (8 bits)
// at code rate 0.925 — the paper observes MCS index 27 with exactly this
// code rate.
constexpr double kPeakEffPerLayer = 8.0 * 0.925;

// UE receiver noise figure, the same handset on both carriers.
constexpr double kNoiseFigureDb = 7.0;

}  // namespace

double CarrierConfig::peak_dl_bitrate_bps() const noexcept {
  return kPeakEffPerLayer * mimo_layers * bandwidth_mhz * 1e6 * overhead *
         dl_fraction;
}

double CarrierConfig::noise_per_re_dbm() const noexcept {
  return -174.0 + 10.0 * std::log10(subcarrier_khz * 1e3) + kNoiseFigureDb;
}

CarrierConfig lte1800() {
  CarrierConfig c;
  c.rat = Rat::kLte;
  c.freq_ghz = 1.85;
  c.bandwidth_mhz = 20.0;
  c.dl_fraction = 1.0;
  c.mimo_layers = 2;
  c.subcarrier_khz = 15.0;
  c.overhead = 0.68;          // -> 201 Mbps peak DL, the paper's night-time UDP cap
  c.tx_re_power_dbm = -2.0;   // calibrated to Table 2: ~1.8% coverage holes
  return c;
}

CarrierConfig nr3500() {
  CarrierConfig c;
  c.rat = Rat::kNr;
  c.freq_ghz = 3.5;
  c.bandwidth_mhz = 100.0;
  c.dl_fraction = 0.75;       // ISP's 3:1 DL:UL slot ratio
  c.mimo_layers = 4;
  c.subcarrier_khz = 30.0;
  c.overhead = 0.54;          // -> 1198.8 Mbps peak DL vs paper's 1200.98
  c.tx_re_power_dbm = 0.0;    // calibrated to Table 2: ~8% coverage holes, mean ~ -86
  return c;
}

}  // namespace fiveg::radio
