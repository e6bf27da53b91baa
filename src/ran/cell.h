// Cells: one radiating sector of a base station, identified by its PCI
// (physical cell indicator) exactly as XCAL reports them in the paper.
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
/// the measurement paths below (measure_cells, measure_cells_row,
/// best_cell and the cohort rows).
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

/// Measures every cell in `cells` (all same RAT, co-channel) from `ue`,
/// treating all other cells as interferers at kInterfererLoad.
[[nodiscard]] std::vector<CellMeasurement> measure_cells(
    const radio::RadioEnvironment& env, const radio::CarrierConfig& carrier,
    const std::vector<Cell>& cells, const geo::Point& ue);

/// Scratch-buffer overload: fills `out` (resized to cells.size()) instead
/// of allocating a fresh vector, so steady-state sweeps reuse capacity.
void measure_cells(const radio::RadioEnvironment& env,
                   const radio::CarrierConfig& carrier,
                   const std::vector<Cell>& cells, const geo::Point& ue,
                   std::vector<CellMeasurement>& out);

/// Fills one flat measurement row — rsrp/sinr/rsrq, one value per cell —
/// for a UE at `pos`. `lin_scratch` needs capacity >= cells.size().
/// Bit-identical, value for value, to rsrp_dbm() per cell followed by
/// derive_interference().
void measure_cells_row(const radio::RadioEnvironment& env,
                       const radio::CarrierConfig& carrier,
                       const std::vector<Cell>& cells, const geo::Point& pos,
                       double* rsrp_dbm, double* sinr_db, double* rsrq_db,
                       double* lin_scratch);

/// The strongest cell by RSRP, or nullptr-celled measurement when `cells`
/// is empty.
[[nodiscard]] CellMeasurement best_cell(
    const radio::RadioEnvironment& env, const radio::CarrierConfig& carrier,
    const std::vector<Cell>& cells, const geo::Point& ue);

}  // namespace fiveg::ran
