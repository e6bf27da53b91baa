// Cells: one radiating sector of a base station, identified by its PCI
// (physical cell indicator) exactly as XCAL reports them in the paper.
//
// The measurement paths here share one row kernel (measure_row): it takes
// each cell's mast index and the mast→UE links (radio::MastLink) computed
// once per mast, so co-sited sectors and co-sited bands evaluate the LoS
// walk, azimuth and distance logarithm once. Deployment builds the mast
// table once and fills both RATs' rows in one pass; measure_cells matches
// the masts of an ad-hoc cell list per call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geo/geometry.h"
#include "radio/carrier.h"
#include "radio/link_budget.h"

namespace fiveg::ran {

/// One sector (cell) of an eNB/gNB site.
struct Cell {
  int pci = 0;             // physical cell indicator
  int site_id = 0;         // which eNB/gNB mast this sector hangs on
  radio::Rat rat = radio::Rat::kNr;
  radio::TxSite site{{0, 0}, radio::SectorAntenna(0.0)};
};

/// A UE-side measurement of one cell, the tuple XCAL logs per sample.
struct CellMeasurement {
  const Cell* cell = nullptr;
  double rsrp_dbm = -140.0;
  double rsrq_db = -25.0;
  double sinr_db = -10.0;

  /// True when the cell can provide service (paper: RSRP >= -105 dBm).
  [[nodiscard]] bool in_coverage() const noexcept;
};

/// Load factor at which every non-serving co-channel cell interferes in
/// the measurement paths below (measure_cells, measure_row, best_cell and
/// the cohort rows).
inline constexpr double kInterfererLoad = 0.5;

/// Derives SINR and RSRQ for `n` co-channel cells from their RSRP values:
/// every other cell interferes at `interferer_load` on top of thermal
/// noise. `rsrp_dbm` is read, `lin_scratch` (capacity >= n) receives the
/// linear-mW conversions. This is the one SINR/RSRQ formula: every
/// measurement path (measure_cells, the cohort rows) goes through it.
void derive_interference(const double* rsrp_dbm, double* lin_scratch,
                         std::size_t n, double noise_per_re_dbm,
                         double interferer_load, double* sinr_db,
                         double* rsrq_db);

/// The index of `pos` in `masts`, appending it when no entry equals it
/// exactly. Cells whose positions compare equal share one mast, and so one
/// radio::MastLink per UE, whatever their site_id or order.
std::uint32_t mast_index(std::vector<geo::Point>& masts, const geo::Point& pos);

/// Where one RAT's flat measurement row goes: one value per cell in each
/// array, cells in list order.
struct MeasRow {
  double* rsrp_dbm;
  double* sinr_db;
  double* rsrq_db;
};

/// The row kernel: one band's measurement row for a UE at `pos`, with cell
/// i on the mast whose link (computed for `pos`) is links[mast_of[i]].
/// RSRP per cell, then derive_interference(); bit-identical, value for
/// value, to rsrp_dbm() per cell followed by derive_interference().
/// `lin_scratch` needs capacity >= cells.size().
void measure_row(const radio::RadioEnvironment& env,
                 const radio::CarrierConfig& carrier,
                 const std::vector<Cell>& cells, const std::uint32_t* mast_of,
                 const radio::MastLink* links, const geo::Point& pos,
                 MeasRow out, double* lin_scratch);

/// Copies a flat row of `cells` into per-cell measurements (`out` resized
/// to cells.size()).
void unpack_row(const std::vector<Cell>& cells, const MeasRow& row,
                std::vector<CellMeasurement>& out);

/// Measures every cell in `cells` (all same RAT, co-channel) from `ue`,
/// treating all other cells as interferers at kInterfererLoad. The list
/// may be any cells: its masts are matched per call.
[[nodiscard]] std::vector<CellMeasurement> measure_cells(
    const radio::RadioEnvironment& env, const radio::CarrierConfig& carrier,
    const std::vector<Cell>& cells, const geo::Point& ue);

/// Scratch-buffer overload: fills `out` (resized to cells.size()) instead
/// of allocating a fresh vector, so steady-state sweeps reuse capacity.
void measure_cells(const radio::RadioEnvironment& env,
                   const radio::CarrierConfig& carrier,
                   const std::vector<Cell>& cells, const geo::Point& ue,
                   std::vector<CellMeasurement>& out);

/// The strongest of `meas` by RSRP (the first of equals), or a
/// nullptr-celled measurement when `meas` is empty. Records the chosen
/// cell's RSRP, SINR and CQI in the `radio.*{rat=...}` serving-cell
/// digests of the installed metrics scope.
[[nodiscard]] CellMeasurement best_of(const radio::CarrierConfig& carrier,
                                      const std::vector<CellMeasurement>& meas);

/// best_of() over measure_cells(): the strongest cell at `ue`.
[[nodiscard]] CellMeasurement best_cell(
    const radio::RadioEnvironment& env, const radio::CarrierConfig& carrier,
    const std::vector<Cell>& cells, const geo::Point& ue);

}  // namespace fiveg::ran
