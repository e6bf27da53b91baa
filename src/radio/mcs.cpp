#include "radio/mcs.h"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace fiveg::radio {
namespace {

// 28-entry 256-QAM ladder. SINR floors follow the usual ~1.1 dB/step pace
// of the 3GPP ladder, anchored at QPSK 1/8 ~ -6 dB and 256-QAM 0.925 ~ 24 dB.
constexpr McsEntry kTable[] = {
    {0, 2, 0.12, -6.0},  {1, 2, 0.16, -5.0},  {2, 2, 0.19, -4.0},
    {3, 2, 0.25, -3.0},  {4, 2, 0.31, -2.0},  {5, 2, 0.37, -1.0},
    {6, 2, 0.44, 0.0},   {7, 2, 0.51, 1.0},   {8, 2, 0.59, 2.0},
    {9, 2, 0.66, 3.0},   {10, 4, 0.34, 4.0},  {11, 4, 0.37, 5.0},
    {12, 4, 0.42, 6.0},  {13, 4, 0.48, 7.0},  {14, 4, 0.54, 8.0},
    {15, 4, 0.60, 9.0},  {16, 4, 0.64, 10.0}, {17, 6, 0.43, 11.0},
    {18, 6, 0.46, 12.0}, {19, 6, 0.50, 13.0}, {20, 6, 0.55, 14.0},
    {21, 6, 0.60, 15.0}, {22, 6, 0.65, 16.0}, {23, 6, 0.70, 17.0},
    {24, 6, 0.75, 18.5}, {25, 8, 0.60, 20.0}, {26, 8, 0.75, 22.0},
    {27, 8, 0.925, 24.0},
};
constexpr int kTableSize = static_cast<int>(std::size(kTable));

}  // namespace

const McsEntry* mcs_table(int* size) noexcept {
  if (size != nullptr) *size = kTableSize;
  return kTable;
}

McsEntry select_mcs(double sinr_db) noexcept {
  McsEntry best = kTable[0];
  for (const McsEntry& e : kTable) {
    if (sinr_db >= e.min_sinr_db) best = e;
  }
  return best;
}

int cqi_from_sinr(double sinr_db) noexcept {
  // 15 CQI levels spanning [-6, 22] dB, ~2 dB per level.
  if (sinr_db < -6.0) return 0;
  const int cqi = 1 + static_cast<int>((sinr_db + 6.0) / 2.0);
  return std::min(cqi, 15);
}

double dl_bitrate_bps(const CarrierConfig& c, double sinr_db,
                      double prb_fraction) noexcept {
  if (sinr_db < kTable[0].min_sinr_db) return 0.0;
  prb_fraction = std::clamp(prb_fraction, 0.0, 1.0);
  // High-order MIMO needs SINR headroom: rank collapses as SINR drops.
  int layers = c.mimo_layers;
  if (sinr_db < 20.0) layers = std::min(layers, 2);
  if (sinr_db < 10.0) layers = 1;
  const McsEntry mcs = select_mcs(sinr_db);
  return mcs.efficiency() * layers * c.bandwidth_mhz * 1e6 * c.overhead *
         c.dl_fraction * prb_fraction;
}

double rsrq_db_from_sinr(double sinr_db) noexcept {
  // Linear map SINR [-10, 30] -> RSRQ [-25, -3]; clamped, monotone.
  const double t = std::clamp((sinr_db + 10.0) / 40.0, 0.0, 1.0);
  return -25.0 + t * 22.0;
}

}  // namespace fiveg::radio
