// Path-loss models: free space and the 3GPP TR 38.901 urban-macro (UMa)
// LoS/NLoS fits used for both carriers (the paper's campus is a classic
// dense-urban macro deployment).
#pragma once

namespace fiveg::radio {

/// Free-space path loss, dB. `d_m` clamped to >= 1 m.
[[nodiscard]] double fspl_db(double d_m, double freq_ghz) noexcept;

/// 3GPP UMa line-of-sight path loss (below the breakpoint distance), dB.
[[nodiscard]] double uma_los_db(double d_m, double freq_ghz) noexcept;

/// 3GPP UMa non-line-of-sight path loss, dB (lower-bounded by LoS).
[[nodiscard]] double uma_nlos_db(double d_m, double freq_ghz) noexcept;

/// Path loss for a link on the campus: UMa LoS or NLoS picked by geometry.
/// Street-level clutter in the paper's environment adds a small
/// distance-dependent excess even on nominally LoS streets.
[[nodiscard]] double campus_pathloss_db(double d_m, double freq_ghz,
                                        bool line_of_sight) noexcept;

/// The distance every model here evaluates a link at: `d_m` clamped to
/// >= 1 m.
[[nodiscard]] double path_distance_m(double d_m) noexcept;

/// campus_pathloss_db with its logarithms supplied: `d_m` is a
/// path_distance_m() result, `log10_d` = log10(d_m) and `log10_f` =
/// log10(freq_ghz). campus_pathloss_db is this function on its own
/// arguments, so both return the same bits; callers that evaluate several
/// bands over one link, or one band over many links, take each logarithm
/// once.
[[nodiscard]] double campus_pathloss_db_from_logs(double d_m, double log10_d,
                                                  double log10_f,
                                                  bool line_of_sight) noexcept;

}  // namespace fiveg::radio
