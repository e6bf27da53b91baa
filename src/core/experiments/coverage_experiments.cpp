// Coverage experiments: Table 1 (basic physical info), Table 2 (RSRP
// distribution), Fig. 2 (campus RSRP map + single-cell bit-rate contour)
// and Fig. 3 (indoor/outdoor bit-rate gap).
#include <algorithm>
#include <array>
#include <ostream>

#include "core/experiment.h"
#include "core/paper.h"
#include "core/scenario.h"
#include "geo/route.h"
#include "measure/cdf.h"
#include "measure/histogram.h"
#include "measure/stats.h"
#include "measure/table.h"
#include "radio/mcs.h"

namespace fiveg::core {
namespace {

using measure::TextTable;

// Best-cell RSRP stats over sampled locations for a cell subset.
measure::RunningStats rsrp_stats(const ran::Deployment& dep,
                                 const radio::CarrierConfig& carrier,
                                 const std::vector<ran::Cell>& cells,
                                 const std::vector<geo::Point>& points) {
  measure::RunningStats s;
  for (const geo::Point& p : points) {
    const auto m = ran::best_cell(dep.env(), carrier, cells, p);
    if (m.cell != nullptr) s.add(m.rsrp_dbm);
  }
  return s;
}

std::vector<geo::Point> sample_locations(const Scenario& sc,
                                         std::uint64_t seed, int n) {
  sim::Rng rng = sim::Rng(seed).fork("sample-locations");
  std::vector<geo::Point> pts;
  pts.reserve(n);
  // The paper samples along walkable space: outdoor points.
  for (int i = 0; i < n; ++i) {
    pts.push_back(sc.campus().random_outdoor_point(rng));
  }
  return pts;
}

void run_table1_phy_info(const ExperimentContext& ctx) {
  const Scenario sc(ctx.seed);
  const auto pts = sample_locations(sc, ctx.seed, 2000);
  const auto& dep = sc.deployment();
  const auto lte = rsrp_stats(dep, dep.carrier(radio::Rat::kLte),
                              dep.cells(radio::Rat::kLte), pts);
  const auto nr = rsrp_stats(dep, dep.carrier(radio::Rat::kNr),
                             dep.cells(radio::Rat::kNr), pts);

  TextTable t("Table 1 — basic physical info",
              {"Info", "4G measured", "4G paper", "5G measured",
               "5G paper"});
  t.add_row({"DL band (MHz)", "1840-1860", "1840-1860", "3500-3600",
             "3500-3600"});
  t.add_row({"# cells",
             std::to_string(dep.cells(radio::Rat::kLte).size()),
             std::to_string(paper::kLteCells),
             std::to_string(dep.cells(radio::Rat::kNr).size()),
             std::to_string(paper::kNrCells)});
  t.add_row({"RSRP (dBm)", TextTable::pm(lte.mean(), lte.stddev()),
             TextTable::pm(paper::kLteRsrpMean, paper::kLteRsrpStd),
             TextTable::pm(nr.mean(), nr.stddev()),
             TextTable::pm(paper::kNrRsrpMean, paper::kNrRsrpStd)});
  t.print(*ctx.out);
  ctx.metric("lte_rsrp_mean", lte.mean(), "dBm");
  ctx.metric("nr_rsrp_mean", nr.mean(), "dBm");
}

void run_table2_rsrp_distribution(const ExperimentContext& ctx) {
  const Scenario sc(ctx.seed);
  const auto pts = sample_locations(sc, ctx.seed, 4630);
  const auto& dep = sc.deployment();

  const std::vector<double> edges = {-140, -105, -90, -80, -70, -60, -40};
  const auto fill = [&](const radio::CarrierConfig& carrier,
                        const std::vector<ran::Cell>& cells) {
    measure::Histogram h(edges);
    for (const geo::Point& p : pts) {
      const auto m = ran::best_cell(dep.env(), carrier, cells, p);
      if (m.cell != nullptr) h.add(m.rsrp_dbm);
    }
    return h;
  };
  const auto lte = fill(dep.carrier(radio::Rat::kLte),
                        dep.cells(radio::Rat::kLte));
  const auto nr =
      fill(dep.carrier(radio::Rat::kNr), dep.cells(radio::Rat::kNr));
  const auto lte6 = fill(dep.carrier(radio::Rat::kLte),
                         dep.lte_cells_cosited_with_nr());

  TextTable t("Table 2 — RSRP distribution (measured | paper)",
              {"RSRP (dBm)", "4G", "4G paper", "5G", "5G paper",
               "4G (6 eNBs)", "4G6 paper"});
  // Print from the strongest bin down, like the paper.
  for (int row = 5; row >= 0; --row) {
    const auto bin = static_cast<std::size_t>(row);
    t.add_row({lte.bin_label(bin), TextTable::pct(lte.fraction(bin)),
               TextTable::pct(paper::kLteRsrpDist[5 - row]),
               TextTable::pct(nr.fraction(bin)),
               TextTable::pct(paper::kNrRsrpDist[5 - row]),
               TextTable::pct(lte6.fraction(bin)),
               TextTable::pct(paper::kLte6RsrpDist[5 - row])});
  }
  t.print(*ctx.out);

  TextTable holes("Coverage holes (RSRP < -105 dBm)",
                  {"network", "measured", "paper"});
  holes.add_row({"5G", TextTable::pct(nr.fraction(0)),
                 TextTable::pct(paper::kNrRsrpDist[5])});
  holes.add_row({"4G", TextTable::pct(lte.fraction(0)),
                 TextTable::pct(paper::kLteRsrpDist[5])});
  holes.add_row({"4G (6 eNBs)", TextTable::pct(lte6.fraction(0)),
                 TextTable::pct(paper::kLte6RsrpDist[5])});
  holes.print(*ctx.out);
  ctx.metric("nr_hole_fraction", nr.fraction(0), "fraction");
  ctx.metric("lte_hole_fraction", lte.fraction(0), "fraction");
}

void run_fig2_coverage_map(const ExperimentContext& ctx) {
  const Scenario sc(ctx.seed);
  const auto& dep = sc.deployment();
  const auto& b = sc.campus().bounds();

  // (a) 5G best-RSRP map on a coarse grid.
  *ctx.out << "Fig. 2(a) — 5G RSRP map ("
           << "#: >=-80  +: [-90,-80)  .: [-105,-90)  o: hole  B: building)\n";
  const int cols = 50, rows = 46;
  int holes = 0, total = 0;
  for (int r = rows - 1; r >= 0; --r) {
    for (int c = 0; c < cols; ++c) {
      const geo::Point p{b.min.x + (c + 0.5) * b.width() / cols,
                         b.min.y + (r + 0.5) * b.height() / rows};
      if (sc.campus().is_indoor(p)) {
        *ctx.out << 'B';
        continue;
      }
      const auto m = dep.best(radio::Rat::kNr, p);
      ++total;
      char ch = 'o';
      if (m.rsrp_dbm >= -80) {
        ch = '#';
      } else if (m.rsrp_dbm >= -90) {
        ch = '+';
      } else if (m.rsrp_dbm >= -105) {
        ch = '.';
      } else {
        ++holes;
      }
      *ctx.out << ch;
    }
    *ctx.out << "\n";
  }
  *ctx.out << "outdoor grid holes: "
           << TextTable::pct(static_cast<double>(holes) / total) << "\n\n";

  // (b) bit-rate vs boresight distance for the PCI-72 cell.
  const ran::Cell* cell72 = nullptr;
  for (const ran::Cell& c : dep.cells(radio::Rat::kNr)) {
    if (c.pci == 72) cell72 = &c;
  }
  TextTable t("Fig. 2(b) — PCI 72 bit-rate contour (sector walk, mean "
              "over +/-20 deg)",
              {"distance (m)", "bit-rate (Mbps)", "RSRP (dBm)"});
  const double az0 = cell72->site.antenna.azimuth_deg();
  double range_m = 0;
  for (double d = 20; d <= 400; d += 20) {
    measure::RunningStats rate, rsrp;
    for (double off = -20; off <= 20; off += 10) {
      const double az = (az0 + off) * M_PI / 180.0;
      const geo::Point p{cell72->site.pos.x + d * std::cos(az),
                         cell72->site.pos.y + d * std::sin(az)};
      const auto meas = ran::best_cell(
          dep.env(), dep.carrier(radio::Rat::kNr), {*cell72}, p);
      rsrp.add(meas.rsrp_dbm);
      rate.add(meas.in_coverage()
                   ? radio::dl_bitrate_bps(dep.carrier(radio::Rat::kNr),
                                           meas.sinr_db)
                   : 0.0);
    }
    // Range: distance of the first service-floor crossing.
    if (range_m == 0 && rsrp.mean() < radio::kServiceRsrpFloorDbm) {
      range_m = d - 20;
    }
    t.add_row({TextTable::num(d, 0), TextTable::num(rate.mean() / 1e6, 0),
               TextTable::num(rsrp.mean(), 1)});
    ctx.metric_point("bitrate_vs_distance", d, rate.mean() / 1e6, "Mbps");
  }
  t.print(*ctx.out);
  TextTable r("Single-cell link range",
              {"network", "measured (m)", "paper (m)"});
  r.add_row({"5G", TextTable::num(range_m, 0),
             TextTable::num(paper::kNrLinkRangeM, 0)});
  r.print(*ctx.out);
  ctx.metric("nr_link_range", range_m, "m");
  ctx.metric("outdoor_hole_fraction", static_cast<double>(holes) / total,
             "fraction");
}

void run_fig3_indoor_outdoor(const ExperimentContext& ctx) {
  const Scenario sc(ctx.seed);
  const auto& dep = sc.deployment();
  sim::Rng rng = sim::Rng(ctx.seed).fork("fig3");

  // Adjacent indoor/outdoor pairs: points just inside and just outside
  // building walls (the paper samples spots ~100 m from a site).
  measure::RunningStats nr_in, nr_out, lte_in, lte_out;
  for (const geo::Building& bld : sc.campus().buildings()) {
    const geo::Rect& f = bld.footprint;
    for (int k = 0; k < 4; ++k) {
      const double x = rng.uniform(f.min.x + 2, f.max.x - 2);
      const geo::Point inside{x, f.min.y + rng.uniform(2.0, 8.0)};
      const geo::Point outside{x, f.min.y - 4.0};
      nr_in.add(dep.dl_bitrate_bps(radio::Rat::kNr, inside));
      nr_out.add(dep.dl_bitrate_bps(radio::Rat::kNr, outside));
      lte_in.add(dep.dl_bitrate_bps(radio::Rat::kLte, inside));
      lte_out.add(dep.dl_bitrate_bps(radio::Rat::kLte, outside));
    }
  }
  const double nr_drop = 1.0 - nr_in.mean() / nr_out.mean();
  const double lte_drop = 1.0 - lte_in.mean() / lte_out.mean();

  TextTable t("Fig. 3 — indoor/outdoor bit-rate gap",
              {"network", "outdoor (Mbps)", "indoor (Mbps)",
               "drop measured", "drop paper"});
  t.add_row({"5G", TextTable::num(nr_out.mean() / 1e6, 0),
             TextTable::num(nr_in.mean() / 1e6, 0),
             TextTable::pct(nr_drop), TextTable::pct(paper::kNrIndoorDrop)});
  t.add_row({"4G", TextTable::num(lte_out.mean() / 1e6, 0),
             TextTable::num(lte_in.mean() / 1e6, 0),
             TextTable::pct(lte_drop),
             TextTable::pct(paper::kLteIndoorDrop)});
  t.print(*ctx.out);
  ctx.metric("nr_indoor_drop", nr_drop, "fraction");
  ctx.metric("lte_indoor_drop", lte_drop, "fraction");
}

}  // namespace

void register_coverage_experiments(ExperimentRegistry& reg) {
  reg.add({"table1_phy_info", "Table 1",
           "Band, cell counts and mean RSRP of the co-located 4G/5G networks",
           /*smoke=*/true, run_table1_phy_info});
  reg.add({"table2_rsrp_distribution", "Table 2",
           "RSRP distribution: coverage holes are 4.6x more common on 5G",
           /*smoke=*/true, run_table2_rsrp_distribution});
  reg.add({"fig2_coverage_map", "Figure 2",
           "Campus RSRP map (ASCII) and the bit-rate contour of one gNB cell",
           /*smoke=*/true, run_fig2_coverage_map});
  reg.add({"fig3_indoor_outdoor", "Figure 3",
           "Indoor/outdoor bit-rate gap: ~51% drop on 5G vs ~20% on 4G",
           /*smoke=*/true, run_fig3_indoor_outdoor});
}

}  // namespace fiveg::core
