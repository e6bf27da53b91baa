#include "radio/pathloss.h"

#include <algorithm>
#include <cmath>

namespace fiveg::radio {
namespace {

// The two UMa fits in log10 terms; the model functions below all evaluate
// them through these, so each fit has one expression (and one rounding).
double uma_los_from_logs(double log10_d, double log10_f) noexcept {
  return 28.0 + 22.0 * log10_d + 20.0 * log10_f;
}

double uma_nlos_from_logs(double log10_d, double log10_f) noexcept {
  const double nlos = 13.54 + 39.08 * log10_d + 20.0 * log10_f;
  return std::max(nlos, uma_los_from_logs(log10_d, log10_f));
}

}  // namespace

double path_distance_m(double d_m) noexcept { return std::max(d_m, 1.0); }

double fspl_db(double d_m, double freq_ghz) noexcept {
  const double d = path_distance_m(d_m);
  return 32.45 + 20.0 * std::log10(d / 1000.0 * freq_ghz * 1000.0);
}

double uma_los_db(double d_m, double freq_ghz) noexcept {
  return uma_los_from_logs(std::log10(path_distance_m(d_m)),
                           std::log10(freq_ghz));
}

double uma_nlos_db(double d_m, double freq_ghz) noexcept {
  return uma_nlos_from_logs(std::log10(path_distance_m(d_m)),
                            std::log10(freq_ghz));
}

double campus_pathloss_db(double d_m, double freq_ghz,
                          bool line_of_sight) noexcept {
  const double d = path_distance_m(d_m);
  return campus_pathloss_db_from_logs(d, std::log10(d), std::log10(freq_ghz),
                                      line_of_sight);
}

double campus_pathloss_db_from_logs(double d_m, double log10_d,
                                    double log10_f,
                                    bool line_of_sight) noexcept {
  if (!line_of_sight) return uma_nlos_from_logs(log10_d, log10_f);
  // LoS street canyon with foliage/vehicle clutter: blend partially toward
  // NLoS with distance. The cap keeps the effective distance slope near
  // ~30 dB/decade, which reproduces the paper's Table 2 RSRP dispersion
  // (sigma ~9-12 dB over the campus).
  const double blend = std::clamp((d_m - 50.0) / 300.0, 0.0, 0.45);
  return (1.0 - blend) * uma_los_from_logs(log10_d, log10_f) +
         blend * uma_nlos_from_logs(log10_d, log10_f);
}

}  // namespace fiveg::radio
