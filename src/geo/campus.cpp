#include "geo/campus.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace fiveg::geo {

CampusMap::CampusMap(Rect bounds, std::vector<Building> buildings)
    : bounds_(bounds), buildings_(std::move(buildings)) {
  if (bounds_.width() <= 0 || bounds_.height() <= 0) {
    throw std::invalid_argument("CampusMap bounds must be non-degenerate");
  }
  build_index();
}

void CampusMap::build_index() {
  // Grid domain: bounds plus every footprint, so clamped coordinates are
  // always conservative (a building outside `bounds_` still lands in an
  // edge cell, as does any query point beyond it).
  Point lo = bounds_.min, hi = bounds_.max;
  for (const Building& b : buildings_) {
    lo.x = std::min(lo.x, b.footprint.min.x);
    lo.y = std::min(lo.y, b.footprint.min.y);
    hi.x = std::max(hi.x, b.footprint.max.x);
    hi.y = std::max(hi.y, b.footprint.max.y);
  }
  grid_min_ = lo;

  // Aim for ~1 cell per building: segment traversal pays per column it
  // crosses, and with per-cell candidate bitmasks a slightly denser cell is
  // cheaper than extra columns.
  const double w = hi.x - lo.x, h = hi.y - lo.y;
  const double target_cells =
      std::max(16.0, 1.0 * static_cast<double>(buildings_.size()));
  const double edge = std::sqrt(w * h / target_cells);
  nx_ = std::clamp(static_cast<int>(std::ceil(w / std::max(edge, 1e-9))), 1,
                   256);
  ny_ = std::clamp(static_cast<int>(std::ceil(h / std::max(edge, 1e-9))), 1,
                   256);
  cell_w_ = w / nx_;
  cell_h_ = h / ny_;
  inv_cell_w_ = 1.0 / cell_w_;
  inv_cell_h_ = 1.0 / cell_h_;

  // CSR fill: count, prefix-sum, then place. Iterating buildings in
  // ascending index order keeps each cell's candidate list ascending, which
  // preserves the brute-force scan order (first-match and summation order).
  const auto n_cells = static_cast<std::size_t>(nx_) * ny_;
  std::vector<std::uint32_t> counts(n_cells, 0);
  const auto cell_range = [&](const Rect& f) {
    return std::array<int, 4>{col(f.min.x), col(f.max.x), row(f.min.y),
                              row(f.max.y)};
  };
  for (const Building& b : buildings_) {
    const auto [x0, x1, y0, y1] = cell_range(b.footprint);
    for (int iy = y0; iy <= y1; ++iy) {
      for (int ix = x0; ix <= x1; ++ix) {
        ++counts[static_cast<std::size_t>(iy) * nx_ + ix];
      }
    }
  }
  cell_start_.assign(n_cells + 1, 0);
  for (std::size_t i = 0; i < n_cells; ++i) {
    cell_start_[i + 1] = cell_start_[i] + counts[i];
  }
  cell_items_.resize(cell_start_.back());
  std::vector<std::uint32_t> fill(cell_start_.begin(),
                                  cell_start_.end() - 1);
  for (std::uint32_t i = 0; i < buildings_.size(); ++i) {
    const auto [x0, x1, y0, y1] = cell_range(buildings_[i].footprint);
    for (int iy = y0; iy <= y1; ++iy) {
      for (int ix = x0; ix <= x1; ++ix) {
        cell_items_[fill[static_cast<std::size_t>(iy) * nx_ + ix]++] = i;
      }
    }
  }
  mask_words_ = std::max<std::size_t>(1, (buildings_.size() + 63) / 64);
  cell_mask_.assign(n_cells * mask_words_, 0);
  for (std::size_t c = 0; c < n_cells; ++c) {
    for (std::uint32_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
      const std::uint32_t i = cell_items_[k];
      cell_mask_[c * mask_words_ + i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
}

int CampusMap::col(double x) const noexcept {
  const auto ix =
      static_cast<int>(std::floor((x - grid_min_.x) * inv_cell_w_));
  return std::clamp(ix, 0, nx_ - 1);
}

int CampusMap::row(double y) const noexcept {
  const auto iy =
      static_cast<int>(std::floor((y - grid_min_.y) * inv_cell_h_));
  return std::clamp(iy, 0, ny_ - 1);
}

std::pair<const std::uint32_t*, const std::uint32_t*> CampusMap::cell_items(
    int ix, int iy) const noexcept {
  const auto c = static_cast<std::size_t>(iy) * nx_ + ix;
  return {cell_items_.data() + cell_start_[c],
          cell_items_.data() + cell_start_[c + 1]};
}

namespace {

// Fractional margin (in cell units) by which segment row ranges are widened.
// Column and point lookups need no margin: the index registration and the
// query evaluate the *same* monotone expression on the *same* coordinates,
// so their roundings agree. Only the per-column slab intersection computes
// *new* y values (two FP ops off the exact ones, ~1e-13 relative); 1e-9
// cell-widths dwarfs that error while visiting an extra row only when the
// segment grazes a cell boundary.
constexpr double kRowMargin = 1e-9;

}  // namespace

// Column-slab traversal: for each grid column the segment's x-range covers,
// visit the rows its y-range within that slab covers. The visited set is a
// conservative superset of the cells the segment passes through (see
// kRowMargin); superset visits only cost a few extra (exact) candidate
// tests, so results cannot change.
template <class F>
bool CampusMap::for_each_segment_cell(const Segment& s, F&& f) const {
  const int ix0 = col(std::min(s.a.x, s.b.x));
  const int ix1 = col(std::max(s.a.x, s.b.x));
  const double dx = s.b.x - s.a.x;
  const double dy = s.b.y - s.a.y;

  const auto row_lo = [&](double y) {
    const double g = (y - grid_min_.y) * inv_cell_h_;
    double fl = std::floor(g);
    if (g - fl < kRowMargin) fl -= 1.0;
    return std::clamp(static_cast<int>(fl), 0, ny_ - 1);
  };
  const auto row_hi = [&](double y) {
    const double g = (y - grid_min_.y) * inv_cell_h_;
    double fl = std::floor(g);
    if (fl + 1.0 - g < kRowMargin) fl += 1.0;
    return std::clamp(static_cast<int>(fl), 0, ny_ - 1);
  };

  if (ix0 == ix1 || dx == 0.0) {
    const int ix = ix0;
    const int iy0 = row_lo(std::min(s.a.y, s.b.y));
    const int iy1 = row_hi(std::max(s.a.y, s.b.y));
    for (int iy = iy0; iy <= iy1; ++iy) {
      if (!f(ix, iy)) return false;
    }
    return true;
  }

  // One division for the whole walk; per column the slab's two boundary
  // y values advance by the constant y_step.
  const double inv_dx = 1.0 / dx;
  const double y_step = dy * (cell_w_ * inv_dx);  // dy per column width
  double y_at_lo =
      s.a.y + dy * ((grid_min_.x + ix0 * cell_w_ - s.a.x) * inv_dx);
  const double y_a = s.a.y, y_b = s.b.y;
  const double y_min = std::min(y_a, y_b), y_max = std::max(y_a, y_b);
  for (int ix = ix0; ix <= ix1; ++ix, y_at_lo += y_step) {
    // Clamp the slab's y interval to the segment's own y extent (the first
    // and last slabs extend past the endpoints).
    const double y_next = y_at_lo + y_step;
    const double lo =
        std::clamp(std::min(y_at_lo, y_next), y_min, y_max);
    const double hi =
        std::clamp(std::max(y_at_lo, y_next), y_min, y_max);
    const int iy0 = row_lo(lo);
    const int iy1 = row_hi(hi);
    for (int iy = iy0; iy <= iy1; ++iy) {
      if (!f(ix, iy)) return false;
    }
  }
  return true;
}

bool CampusMap::is_indoor(const Point& p) const noexcept {
  return containing_building(p) != nullptr;
}

const Building* CampusMap::containing_building(const Point& p) const noexcept {
  const auto [it, end] = cell_items(col(p.x), row(p.y));
  for (const std::uint32_t* i = it; i != end; ++i) {
    if (buildings_[*i].contains(p)) return &buildings_[*i];
  }
  return nullptr;
}

bool CampusMap::has_los(const Segment& path) const noexcept {
  // Candidates already seen in an earlier cell are skipped via the running
  // `seen` mask, and each cell's new ones are tested in ascending index
  // order; the walk stops at the first blocking building, and the
  // predicate is the unmodified Rect::intersects, so the boolean matches
  // the brute-force scan exactly.
  const std::uint64_t* masks = cell_mask_.data();
  const auto walk = [&](auto words, std::uint64_t* seen) {
    return for_each_segment_cell(path, [&](int ix, int iy) {
      const std::uint64_t* cell =
          masks + (static_cast<std::size_t>(iy) * nx_ + ix) * words;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t m = cell[w] & ~seen[w];
        seen[w] |= m;
        while (m != 0) {
          const std::size_t i =
              64 * w + static_cast<std::size_t>(std::countr_zero(m));
          m &= m - 1;
          if (buildings_[i].footprint.intersects(path)) return false;
        }
      }
      return true;
    });
  };
  // The same walk for every word count. One word (every paper campus) is
  // a compile-time count, which keeps `seen` in a register; up to 256
  // buildings the mask lives on the stack.
  const std::size_t words = mask_words_;
  if (words == 1) {
    std::uint64_t seen = 0;
    return walk(std::integral_constant<std::size_t, 1>{}, &seen);
  }
  std::array<std::uint64_t, 4> stack_seen{};
  if (words <= stack_seen.size()) return walk(words, stack_seen.data());
  std::vector<std::uint64_t> heap_seen(words, 0);
  return walk(words, heap_seen.data());
}

double CampusMap::o2i_loss_db(const Point& p, double freq_ghz) const noexcept {
  if (const Building* b = containing_building(p)) {
    // One exterior wall plus interior clutter growing with depth from
    // the nearest wall (3GPP O2I spirit, linear-depth variant).
    const Rect& f = b->footprint;
    const double depth =
        std::min(std::min(p.x - f.min.x, f.max.x - p.x),
                 std::min(p.y - f.min.y, f.max.y - p.y));
    return wall_loss_db(b->material, freq_ghz) + 0.3 * depth;
  }
  return 0.0;
}

Point CampusMap::random_point(sim::Rng& rng) const {
  return {rng.uniform(bounds_.min.x, bounds_.max.x),
          rng.uniform(bounds_.min.y, bounds_.max.y)};
}

Point CampusMap::random_outdoor_point(sim::Rng& rng) const {
  // Street grid keeps >40% of the area outdoor, so rejection terminates fast.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const Point p = random_point(rng);
    if (!is_indoor(p)) return p;
  }
  return bounds_.min;  // unreachable for any sane map; keeps noexcept callers simple
}

CampusMap make_campus(sim::Rng rng) {
  // Paper: 0.5 km x 0.92 km, dense urban campus, brick/concrete buildings,
  // surrounded by tall buildings and open areas. ~1 in 5 blocks is open.
  return make_city_campus(std::move(rng), 500.0, 920.0, 0.2);
}

CampusMap make_city_campus(sim::Rng rng, double width_m, double height_m,
                           double open_fraction) {
  const Rect bounds{{0.0, 0.0}, {width_m, height_m}};

  std::vector<Building> buildings;
  // Street grid: blocks of 100 m x 115 m separated by 20 m streets. Each
  // block hosts a building with jittered size/position; some blocks stay
  // open (quads, sports fields). The draw sequence per block is fixed, so
  // the paper parameters reproduce the original make_campus map exactly.
  const double block_w = 100.0, block_h = 115.0;
  int id = 0;
  for (double bx = 10.0; bx + block_w < bounds.max.x; bx += block_w + 20.0) {
    for (double by = 10.0; by + block_h < bounds.max.y; by += block_h + 20.0) {
      if (rng.bernoulli(open_fraction)) continue;
      const double w = rng.uniform(0.55, 0.8) * block_w;
      const double h = rng.uniform(0.55, 0.8) * block_h;
      const double ox = bx + rng.uniform(0.0, block_w - w);
      const double oy = by + rng.uniform(0.0, block_h - h);
      const Material m =
          rng.bernoulli(0.7) ? Material::kConcrete : Material::kBrick;
      buildings.push_back(
          Building{Rect{{ox, oy}, {ox + w, oy + h}}, m,
                   "bldg-" + std::to_string(id++)});
    }
  }
  return CampusMap(bounds, std::move(buildings));
}

}  // namespace fiveg::geo
