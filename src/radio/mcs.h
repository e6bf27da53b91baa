// Link adaptation: SINR -> CQI -> MCS -> spectral efficiency -> bit-rate.
// The tables follow the 3GPP 256-QAM CQI/MCS ladder; the paper's UEs report
// CQI/MCS through XCAL and typically ride MCS 27 (256-QAM, rate 0.925).
#pragma once

#include "radio/carrier.h"

namespace fiveg::radio {

/// One row of the MCS ladder.
struct McsEntry {
  int index;              // MCS index 0..27
  int modulation_bits;    // 2 = QPSK .. 8 = 256-QAM
  double code_rate;       // effective code rate
  double min_sinr_db;     // SINR needed to hold ~10% BLER at first HARQ tx

  /// Spectral efficiency per layer, bits/s/Hz.
  [[nodiscard]] double efficiency() const noexcept {
    return modulation_bits * code_rate;
  }
};

/// The full ladder, ascending by index.
[[nodiscard]] const McsEntry* mcs_table(int* size) noexcept;

/// Highest MCS whose SINR floor is met (the scheduler's pick). SINR below
/// the bottom entry returns MCS 0 — the link then relies on HARQ.
[[nodiscard]] McsEntry select_mcs(double sinr_db) noexcept;

/// CQI 1..15 report for a SINR (0 = out of range).
[[nodiscard]] int cqi_from_sinr(double sinr_db) noexcept;

/// Downlink MAC-level bit-rate for a UE at `sinr_db` holding `prb_fraction`
/// of the carrier's PRBs, in bits/s.
[[nodiscard]] double dl_bitrate_bps(const CarrierConfig& c, double sinr_db,
                                    double prb_fraction = 1.0) noexcept;

/// Reporting-layer RSRQ proxy: monotone map from SINR into the RSRQ range
/// the paper plots ([-25, -3] dB). Used only for hand-off comparisons, where
/// gaps in dB matter rather than absolute calibration.
[[nodiscard]] double rsrq_db_from_sinr(double sinr_db) noexcept;

/// Minimum RSRP to initiate service (Rel-15 TS 36.211 per the paper):
/// below -105 dBm the cell is a coverage hole.
inline constexpr double kServiceRsrpFloorDbm = -105.0;

}  // namespace fiveg::radio
