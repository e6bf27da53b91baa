#include "ran/deployment.h"

#include <algorithm>
#include <array>
#include <set>
#include <stdexcept>
#include <utility>

#include "radio/carrier.h"
#include "radio/mcs.h"

namespace fiveg::ran {

Deployment::Deployment(const geo::CampusMap* campus, std::uint64_t seed,
                       std::vector<Cell> lte_cells, std::vector<Cell> nr_cells)
    : campus_(campus),
      env_(campus, seed),
      lte_carrier_(radio::lte1800()),
      nr_carrier_(radio::nr3500()),
      lte_cells_(std::move(lte_cells)),
      nr_cells_(std::move(nr_cells)) {
  if (lte_cells_.empty() || nr_cells_.empty()) {
    throw std::invalid_argument("Deployment needs cells for both RATs");
  }
  for (const Cell& c : lte_cells_) {
    lte_mast_.push_back(mast_index(masts_, c.site.pos));
  }
  for (const Cell& c : nr_cells_) {
    nr_mast_.push_back(mast_index(masts_, c.site.pos));
  }
}

void Deployment::measure_rows(const geo::Point& ue, RowScratch& scratch,
                              MeasRow lte, MeasRow nr) const {
  // Every mast carries a cell of one RAT or both, so the two rows need
  // every link between them.
  scratch.links.resize(masts_.size());
  for (std::size_t m = 0; m < masts_.size(); ++m) {
    scratch.links[m] = env_.mast_link(masts_[m], ue);
  }
  scratch.lin.resize(std::max(lte_cells_.size(), nr_cells_.size()));
  measure_row(env_, lte_carrier_, lte_cells_, lte_mast_.data(),
              scratch.links.data(), ue, lte, scratch.lin.data());
  measure_row(env_, nr_carrier_, nr_cells_, nr_mast_.data(),
              scratch.links.data(), ue, nr, scratch.lin.data());
}

std::vector<CellMeasurement> Deployment::measure(radio::Rat rat,
                                                 const geo::Point& ue) const {
  return measure_cells(env_, carrier(rat), cells(rat), ue);
}

void Deployment::measure_into(radio::Rat rat, const geo::Point& ue,
                              std::vector<CellMeasurement>& out) const {
  measure_cells(env_, carrier(rat), cells(rat), ue, out);
}

void Deployment::measure_into(const geo::Point& ue,
                              std::vector<CellMeasurement>& lte,
                              std::vector<CellMeasurement>& nr) const {
  // Rewritten in full by every call, so results never depend on it.
  struct Scratch {
    RowScratch row;
    std::vector<double> lte[3], nr[3];  // rsrp, sinr, rsrq
  };
  static thread_local Scratch s;
  for (std::vector<double>& v : s.lte) v.resize(lte_cells_.size());
  for (std::vector<double>& v : s.nr) v.resize(nr_cells_.size());
  const MeasRow lte_row{s.lte[0].data(), s.lte[1].data(), s.lte[2].data()};
  const MeasRow nr_row{s.nr[0].data(), s.nr[1].data(), s.nr[2].data()};
  measure_rows(ue, s.row, lte_row, nr_row);
  unpack_row(lte_cells_, lte_row, lte);
  unpack_row(nr_cells_, nr_row, nr);
}

CellMeasurement Deployment::best(radio::Rat rat, const geo::Point& ue) const {
  return best_cell(env_, carrier(rat), cells(rat), ue);
}

std::vector<Cell> Deployment::lte_cells_cosited_with_nr() const {
  std::set<int> nr_sites;
  for (const Cell& c : nr_cells_) nr_sites.insert(c.site_id);
  std::vector<Cell> out;
  for (const Cell& c : lte_cells_) {
    if (nr_sites.count(c.site_id) != 0) out.push_back(c);
  }
  return out;
}

double Deployment::dl_bitrate_bps(radio::Rat rat, const geo::Point& ue) const {
  const CellMeasurement m = best(rat, ue);
  if (!m.in_coverage()) return 0.0;
  return radio::dl_bitrate_bps(carrier(rat), m.sinr_db);
}

int Deployment::site_count(radio::Rat rat) const {
  std::set<int> sites;
  for (const Cell& c : cells(rat)) sites.insert(c.site_id);
  return static_cast<int>(sites.size());
}

Deployment make_deployment(const geo::CampusMap* campus, sim::Rng rng,
                           int gnb_sites) {
  const geo::Rect& b = campus->bounds();

  // 13 eNB masts on a jittered 3x5 grid (two corners left empty), matching
  // the paper's 13 eNBs in 0.46 km^2 (28.14 sites/km^2).
  std::vector<geo::Point> enb_sites;
  const int cols = 3, rows = 5;
  for (int r = 0; r < rows && enb_sites.size() < 13; ++r) {
    for (int c = 0; c < cols && enb_sites.size() < 13; ++c) {
      if ((r == 0 && c == 2) || (r == 4 && c == 0)) continue;  // skip 2 -> 13
      const double x = b.min.x + (c + 0.5) * b.width() / cols +
                       rng.uniform(-25.0, 25.0);
      const double y = b.min.y + (r + 0.5) * b.height() / rows +
                       rng.uniform(-25.0, 25.0);
      enb_sites.push_back({std::clamp(x, b.min.x + 10, b.max.x - 10),
                           std::clamp(y, b.min.y + 10, b.max.y - 10)});
    }
  }

  // LTE sectors: eight 3-sector + five 2-sector masts = 34 cells (Table 1).
  std::vector<Cell> lte_cells;
  int lte_pci = 200;
  for (std::size_t s = 0; s < enb_sites.size(); ++s) {
    const int sectors = s < 8 ? 3 : 2;
    const double base_az = rng.uniform(0.0, 360.0);
    for (int k = 0; k < sectors; ++k) {
      Cell cell;
      cell.pci = lte_pci++;
      cell.site_id = static_cast<int>(s);
      cell.rat = radio::Rat::kLte;
      cell.site = {enb_sites[s],
                   radio::SectorAntenna(base_az + k * 360.0 / sectors)};
      lte_cells.push_back(cell);
    }
  }

  // gNBs co-sited with spread-out eNB masts; the stock 6-site deployment
  // yields 13 NR sectors with the paper's PCIs (Fig. 2(a) labels cells
  // 60..80); denser variants reuse the same spread order.
  const std::array<int, 13> site_spread = {0, 2, 5, 7, 10, 12, 1,
                                           4, 8, 11, 3, 6, 9};
  const std::array<int, 13> nr_pcis = {60, 61, 62, 63, 64, 65, 68,
                                       69, 72, 73, 74, 79, 80};
  gnb_sites = std::clamp(gnb_sites, 1, static_cast<int>(enb_sites.size()));
  std::vector<Cell> nr_cells;
  std::size_t pci_idx = 0;
  for (int g = 0; g < gnb_sites; ++g) {
    const int site_id = site_spread.at(static_cast<std::size_t>(g));
    const int sectors = g == 0 ? 3 : 2;  // stock: 3 + 5*2 = 13 cells
    const double base_az = rng.uniform(0.0, 360.0);
    for (int k = 0; k < sectors; ++k) {
      Cell cell;
      cell.pci = pci_idx < nr_pcis.size()
                     ? nr_pcis[pci_idx]
                     : 81 + static_cast<int>(pci_idx - nr_pcis.size());
      ++pci_idx;
      cell.site_id = site_id;
      cell.rat = radio::Rat::kNr;
      cell.site = {enb_sites[static_cast<std::size_t>(site_id)],
                   radio::SectorAntenna(base_az + k * 360.0 / sectors)};
      nr_cells.push_back(cell);
    }
  }

  return Deployment(campus, rng.next_u64(), std::move(lte_cells),
                    std::move(nr_cells));
}

std::vector<geo::Point> hex_grid_sites(geo::Point center, int rings) {
  // Axial coordinates: every (q, r) with |q|, |r|, |q+r| <= rings. The
  // q-major loop makes the site order (hence site_ids) deterministic.
  std::vector<geo::Point> sites;
  const double row_step = kCityIsdM * 0.8660254037844386;  // isd*sqrt(3)/2
  for (int q = -rings; q <= rings; ++q) {
    const int r_lo = std::max(-rings, -q - rings);
    const int r_hi = std::min(rings, -q + rings);
    for (int r = r_lo; r <= r_hi; ++r) {
      sites.push_back({center.x + kCityIsdM * (q + 0.5 * r),
                       center.y + row_step * r});
    }
  }
  return sites;
}

Deployment make_city_deployment(const geo::CampusMap* campus, sim::Rng rng,
                                const CityGridConfig& config) {
  const geo::Rect& b = campus->bounds();
  const geo::Point center{(b.min.x + b.max.x) / 2.0,
                          (b.min.y + b.max.y) / 2.0};
  const std::vector<geo::Point> sites =
      hex_grid_sites(center, std::max(config.rings, 0));

  std::vector<Cell> lte_cells;
  std::vector<Cell> nr_cells;
  int lte_pci = 300;
  int nr_pci = 500;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    const double lte_az = rng.uniform(0.0, 360.0);
    for (int k = 0; k < kCitySectorsPerSite; ++k) {
      Cell cell;
      cell.pci = lte_pci++;
      cell.site_id = static_cast<int>(s);
      cell.rat = radio::Rat::kLte;
      cell.site = {sites[s],
                   radio::SectorAntenna(lte_az +
                                        k * 360.0 / kCitySectorsPerSite)};
      lte_cells.push_back(cell);
    }
    const double nr_az = rng.uniform(0.0, 360.0);
    for (int k = 0; k < kCitySectorsPerSite; ++k) {
      Cell cell;
      cell.pci = nr_pci++;
      cell.site_id = static_cast<int>(s);
      cell.rat = radio::Rat::kNr;
      cell.site = {sites[s],
                   radio::SectorAntenna(nr_az +
                                        k * 360.0 / kCitySectorsPerSite)};
      nr_cells.push_back(cell);
    }
  }
  return Deployment(campus, rng.next_u64(), std::move(lte_cells),
                    std::move(nr_cells));
}

}  // namespace fiveg::ran
