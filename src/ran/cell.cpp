#include "ran/cell.h"

#include <cmath>

#include "obs/obs.h"
#include "radio/mcs.h"
#include "radio/units.h"

namespace fiveg::ran {

namespace {

// Serving-cell KPI digests, labeled by RAT. Observing only the selected
// cell (not every candidate) keeps the cost bounded by one digest insert
// per best_cell() call; each handle is resolved once per registry.
struct ServingDigests {
  explicit ServingDigests(const char* rat)
      : rsrp(obs::labeled("radio.rsrp_dbm", {{"rat", rat}})),
        sinr(obs::labeled("radio.sinr_db", {{"rat", rat}})),
        cqi(obs::labeled("radio.cqi", {{"rat", rat}})) {}
  obs::ScopedDigest rsrp;
  obs::ScopedDigest sinr;
  obs::ScopedDigest cqi;
};

void observe_serving_cell(const radio::CarrierConfig& carrier,
                          const CellMeasurement& m) {
  if (m.cell == nullptr) return;
  thread_local ServingDigests nr("nr");
  thread_local ServingDigests lte("lte");
  ServingDigests& d = carrier.rat == radio::Rat::kNr ? nr : lte;
  obs::Digest* rsrp = d.rsrp.get();
  if (rsrp == nullptr) return;  // no metrics scope
  rsrp->observe(m.rsrp_dbm);
  d.sinr.get()->observe(m.sinr_db);
  d.cqi.get()->observe(static_cast<double>(radio::cqi_from_sinr(m.sinr_db)));
}

}  // namespace

bool CellMeasurement::in_coverage() const noexcept {
  return cell != nullptr && rsrp_dbm >= radio::kServiceRsrpFloorDbm;
}

void derive_interference(const double* rsrp_dbm, double* lin_scratch,
                         std::size_t n, double noise_per_re_dbm,
                         double interferer_load, double* sinr_db,
                         double* rsrq_db) {
  // Every other cell interferes with each one, so SINR falls out of the
  // running total (keeps a 34-cell sweep O(n)).
  double total_linear_mw = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lin = radio::db_to_linear(rsrp_dbm[i]);
    lin_scratch[i] = lin;
    total_linear_mw += lin;
  }
  const double noise_mw = radio::db_to_linear(noise_per_re_dbm);
  for (std::size_t i = 0; i < n; ++i) {
    const double interference =
        interferer_load * (total_linear_mw - lin_scratch[i]);
    sinr_db[i] =
        radio::linear_to_db(lin_scratch[i] / (noise_mw + interference));
    rsrq_db[i] = radio::rsrq_db_from_sinr(sinr_db[i]);
  }
}

void measure_cells_row(const radio::RadioEnvironment& env,
                       const radio::CarrierConfig& carrier,
                       const std::vector<Cell>& cells, const geo::Point& pos,
                       double* rsrp_dbm, double* sinr_db, double* rsrq_db,
                       double* lin_scratch) {
  // Batched RSRP: the per-UE link-budget terms are evaluated once for the
  // whole cell list and co-sited sectors share their geometry terms.
  env.rsrp_dbm_all(
      carrier, cells.begin(), cells.end(),
      [](const Cell& c) -> const radio::TxSite& { return c.site; }, pos,
      rsrp_dbm);
  derive_interference(rsrp_dbm, lin_scratch, cells.size(),
                      carrier.noise_per_re_dbm(), kInterfererLoad, sinr_db,
                      rsrq_db);
}

void measure_cells(const radio::RadioEnvironment& env,
                   const radio::CarrierConfig& carrier,
                   const std::vector<Cell>& cells, const geo::Point& ue,
                   std::vector<CellMeasurement>& out) {
  // Scratch buffers are reused across calls (coverage sweeps call this
  // once per sample) and fully rewritten, so results don't depend on them.
  static thread_local std::vector<double> rsrp;
  static thread_local std::vector<double> lin;
  static thread_local std::vector<double> sinr;
  static thread_local std::vector<double> rsrq;
  const std::size_t n = cells.size();
  rsrp.resize(n);
  lin.resize(n);
  sinr.resize(n);
  rsrq.resize(n);
  measure_cells_row(env, carrier, cells, ue, rsrp.data(), sinr.data(),
                    rsrq.data(), lin.data());
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].cell = &cells[i];
    out[i].rsrp_dbm = rsrp[i];
    out[i].rsrq_db = rsrq[i];
    out[i].sinr_db = sinr[i];
  }
}

std::vector<CellMeasurement> measure_cells(
    const radio::RadioEnvironment& env, const radio::CarrierConfig& carrier,
    const std::vector<Cell>& cells, const geo::Point& ue) {
  std::vector<CellMeasurement> out;
  measure_cells(env, carrier, cells, ue, out);
  return out;
}

CellMeasurement best_cell(const radio::RadioEnvironment& env,
                          const radio::CarrierConfig& carrier,
                          const std::vector<Cell>& cells,
                          const geo::Point& ue) {
  static thread_local std::vector<CellMeasurement> scratch;
  measure_cells(env, carrier, cells, ue, scratch);
  CellMeasurement best;
  for (const CellMeasurement& m : scratch) {
    if (best.cell == nullptr || m.rsrp_dbm > best.rsrp_dbm) best = m;
  }
  observe_serving_cell(carrier, best);
  return best;
}

}  // namespace fiveg::ran
