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

std::uint32_t mast_index(std::vector<geo::Point>& masts,
                         const geo::Point& pos) {
  // Newest first: cell lists keep a mast's sectors together, so the match
  // is almost always the last mast added.
  for (std::size_t m = masts.size(); m-- > 0;) {
    if (masts[m] == pos) return static_cast<std::uint32_t>(m);
  }
  masts.push_back(pos);
  return static_cast<std::uint32_t>(masts.size() - 1);
}

void measure_row(const radio::RadioEnvironment& env,
                 const radio::CarrierConfig& carrier,
                 const std::vector<Cell>& cells, const std::uint32_t* mast_of,
                 const radio::MastLink* links, const geo::Point& pos,
                 MeasRow out, double* lin_scratch) {
  env.rsrp_row(
      carrier, cells.begin(), cells.end(),
      [](const Cell& c) -> const radio::SectorAntenna& {
        return c.site.antenna;
      },
      mast_of, links, pos, out.rsrp_dbm);
  derive_interference(out.rsrp_dbm, lin_scratch, cells.size(),
                      carrier.noise_per_re_dbm(), kInterfererLoad,
                      out.sinr_db, out.rsrq_db);
}

void unpack_row(const std::vector<Cell>& cells, const MeasRow& row,
                std::vector<CellMeasurement>& out) {
  out.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out[i].cell = &cells[i];
    out[i].rsrp_dbm = row.rsrp_dbm[i];
    out[i].rsrq_db = row.rsrq_db[i];
    out[i].sinr_db = row.sinr_db[i];
  }
}

void measure_cells(const radio::RadioEnvironment& env,
                   const radio::CarrierConfig& carrier,
                   const std::vector<Cell>& cells, const geo::Point& ue,
                   std::vector<CellMeasurement>& out) {
  // Scratch buffers are reused across calls (coverage sweeps call this
  // once per sample) and fully rewritten, so results don't depend on them.
  static thread_local std::vector<geo::Point> masts;
  static thread_local std::vector<std::uint32_t> mast_of;
  static thread_local std::vector<radio::MastLink> links;
  static thread_local std::vector<double> rsrp;
  static thread_local std::vector<double> lin;
  static thread_local std::vector<double> sinr;
  static thread_local std::vector<double> rsrq;
  const std::size_t n = cells.size();
  masts.clear();
  mast_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    mast_of[i] = mast_index(masts, cells[i].site.pos);
  }
  links.resize(masts.size());
  for (std::size_t m = 0; m < masts.size(); ++m) {
    links[m] = env.mast_link(masts[m], ue);
  }
  rsrp.resize(n);
  lin.resize(n);
  sinr.resize(n);
  rsrq.resize(n);
  const MeasRow row{rsrp.data(), sinr.data(), rsrq.data()};
  measure_row(env, carrier, cells, mast_of.data(), links.data(), ue, row,
              lin.data());
  unpack_row(cells, row, out);
}

std::vector<CellMeasurement> measure_cells(
    const radio::RadioEnvironment& env, const radio::CarrierConfig& carrier,
    const std::vector<Cell>& cells, const geo::Point& ue) {
  std::vector<CellMeasurement> out;
  measure_cells(env, carrier, cells, ue, out);
  return out;
}

CellMeasurement best_of(const radio::CarrierConfig& carrier,
                        const std::vector<CellMeasurement>& meas) {
  CellMeasurement best;
  for (const CellMeasurement& m : meas) {
    if (best.cell == nullptr || m.rsrp_dbm > best.rsrp_dbm) best = m;
  }
  observe_serving_cell(carrier, best);
  return best;
}

CellMeasurement best_cell(const radio::RadioEnvironment& env,
                          const radio::CarrierConfig& carrier,
                          const std::vector<Cell>& cells,
                          const geo::Point& ue) {
  static thread_local std::vector<CellMeasurement> scratch;
  measure_cells(env, carrier, cells, ue, scratch);
  return best_of(carrier, scratch);
}

}  // namespace fiveg::ran
