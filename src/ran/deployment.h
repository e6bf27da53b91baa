// The campus deployment: 13 LTE eNBs (34 sectors) and 6 co-sited NR gNBs
// (13 sectors), the NSA layout of the paper's Table 1 and Fig. 2. All
// existing gNBs share a mast with an eNB; not every eNB has a gNB — the
// asymmetry behind the paper's coverage-hole comparison.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/campus.h"
#include "radio/link_budget.h"
#include "ran/cell.h"
#include "sim/rng.h"

namespace fiveg::ran {

/// Immutable campus network: sites, sectors and the propagation env.
///
/// At construction it builds a mast table: the distinct cell positions
/// (matched with exact ==, not by site_id) and, per RAT, each cell's index
/// into it. measure_rows() computes one radio::MastLink per mast and hands
/// it to all the sectors, of either RAT, on that mast. The table is
/// immutable and every query writes only caller-owned or thread-local
/// scratch, so one Deployment may serve many threads.
class Deployment {
 public:
  Deployment(const geo::CampusMap* campus, std::uint64_t seed,
             std::vector<Cell> lte_cells, std::vector<Cell> nr_cells);

  /// Caller-owned scratch for measure_rows(): the per-mast links and the
  /// linear-mW buffer, sized on use.
  struct RowScratch {
    std::vector<radio::MastLink> links;
    std::vector<double> lin;
  };

  [[nodiscard]] const geo::CampusMap& campus() const noexcept {
    return *campus_;
  }
  [[nodiscard]] const radio::RadioEnvironment& env() const noexcept {
    return env_;
  }
  [[nodiscard]] const std::vector<Cell>& cells(radio::Rat rat) const noexcept {
    return rat == radio::Rat::kLte ? lte_cells_ : nr_cells_;
  }
  [[nodiscard]] const radio::CarrierConfig& carrier(
      radio::Rat rat) const noexcept {
    return rat == radio::Rat::kLte ? lte_carrier_ : nr_carrier_;
  }
  /// The distinct mast positions, in first-seen order over the LTE cells
  /// and then the NR cells.
  [[nodiscard]] const std::vector<geo::Point>& masts() const noexcept {
    return masts_;
  }

  /// Both RATs' measurement rows at `ue` in one pass (cells in cells(rat)
  /// order): each mast's link is computed once and shared by its LTE and
  /// NR cells. Every value is bit-identical to rsrp_dbm() per cell
  /// followed by derive_interference(), per RAT.
  void measure_rows(const geo::Point& ue, RowScratch& scratch, MeasRow lte,
                    MeasRow nr) const;

  /// Measures all cells of `rat` from `ue`.
  [[nodiscard]] std::vector<CellMeasurement> measure(
      radio::Rat rat, const geo::Point& ue) const;

  /// Scratch-buffer variant: fills `out` in place so per-sample sweeps
  /// (mobility steps, cohort baselines) stay allocation-free.
  void measure_into(radio::Rat rat, const geo::Point& ue,
                    std::vector<CellMeasurement>& out) const;

  /// Both RATs at `ue` from one measure_rows() pass.
  void measure_into(const geo::Point& ue, std::vector<CellMeasurement>& lte,
                    std::vector<CellMeasurement>& nr) const;

  /// Strongest cell of `rat` at `ue`.
  [[nodiscard]] CellMeasurement best(radio::Rat rat,
                                     const geo::Point& ue) const;

  /// LTE cells restricted to the sites that also host a gNB (the paper's
  /// "4G (6 eNBs)" column in Table 2).
  [[nodiscard]] std::vector<Cell> lte_cells_cosited_with_nr() const;

  /// Achievable DL bit-rate of the best `rat` cell at `ue`, bits/s,
  /// holding the whole carrier. Zero outside coverage.
  [[nodiscard]] double dl_bitrate_bps(radio::Rat rat,
                                      const geo::Point& ue) const;

  /// Number of distinct sites carrying this RAT.
  [[nodiscard]] int site_count(radio::Rat rat) const;

 private:
  const geo::CampusMap* campus_;
  radio::RadioEnvironment env_;
  radio::CarrierConfig lte_carrier_;
  radio::CarrierConfig nr_carrier_;
  std::vector<Cell> lte_cells_;
  std::vector<Cell> nr_cells_;
  std::vector<geo::Point> masts_;
  // Each cell's index into masts_, in cells(rat) order.
  std::vector<std::uint32_t> lte_mast_;
  std::vector<std::uint32_t> nr_mast_;
};

/// Builds the paper's deployment on `campus`: 13 eNB sites on a jittered
/// grid, `gnb_sites` of which (spread out, default 6) also host a gNB;
/// 34 LTE sectors and 2-3 NR sectors per gNB with paper-matching PCIs
/// (60.. for NR). `gnb_sites` > 6 models the densification the paper says
/// would close the coverage holes; it is capped at the 13 eNB masts.
[[nodiscard]] Deployment make_deployment(const geo::CampusMap* campus,
                                         sim::Rng rng, int gnb_sites = 6);

/// Inter-site distance between hex neighbours of the city grid.
inline constexpr double kCityIsdM = 200.0;
/// Sectors per city mast, on each RAT.
inline constexpr int kCitySectorsPerSite = 3;

/// Hex-grid city layout, the calibrated multi-cell reference geometry
/// (3GPP-style rings around a centre site).
struct CityGridConfig {
  int rings = 2;         // rings around the centre: sites = 1+3r(r+1)
};

/// The mast positions of a hex grid centred on `center`: the centre site
/// plus `rings` full rings at kCityIsdM spacing, in deterministic axial
/// (q-major) order. rings=1 -> 7 sites, rings=2 -> 19 sites.
[[nodiscard]] std::vector<geo::Point> hex_grid_sites(geo::Point center,
                                                     int rings);

/// Builds a city-scale deployment on `campus`: every hex mast carries both
/// an eNB and a co-sited gNB (the densified NSA grid), with
/// kCitySectorsPerSite sectors per RAT at jittered azimuths. PCIs start at
/// 300 (LTE) and 500 (NR), clear of the paper campus ranges.
/// Deterministic for a given rng stream.
[[nodiscard]] Deployment make_city_deployment(
    const geo::CampusMap* campus, sim::Rng rng,
    const CityGridConfig& config = {});

}  // namespace fiveg::ran
