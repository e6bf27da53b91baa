// The measurement campus: a 0.5 km x 0.92 km urban block with brick/concrete
// buildings, matching the paper's survey area. The map answers the radio
// model's questions: is a point indoor, is a path line-of-sight, and how much
// outdoor-to-indoor loss does an indoor UE take.
//
// Queries are served by a uniform-grid spatial index over the building
// footprints, so each lookup visits only the grid cells a point or segment
// touches instead of scanning every building. The index is a pure
// acceleration structure: candidate buildings are evaluated with the same
// predicates in the same (ascending) order as the original brute-force
// scans, so every result is bit-identical to the unindexed implementation.
//
// The map holds no mutable state: const queries may be shared across
// threads.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "geo/building.h"
#include "geo/geometry.h"
#include "sim/rng.h"

namespace fiveg::geo {

/// Immutable campus map.
class CampusMap {
 public:
  CampusMap(Rect bounds, std::vector<Building> buildings);

  [[nodiscard]] const Rect& bounds() const noexcept { return bounds_; }
  [[nodiscard]] const std::vector<Building>& buildings() const noexcept {
    return buildings_;
  }

  /// True when the point lies inside any building footprint.
  [[nodiscard]] bool is_indoor(const Point& p) const noexcept;

  /// The first building (in construction order) whose footprint contains
  /// `p`, or nullptr when the point is outdoors.
  [[nodiscard]] const Building* containing_building(
      const Point& p) const noexcept;

  /// True when no building blocks the direct path.
  [[nodiscard]] bool has_los(const Segment& path) const noexcept;

  /// Outdoor-to-indoor loss for a UE at `p`: one exterior wall of the
  /// containing building plus a small interior-clutter term; 0 outdoors.
  /// (Outdoor NLoS blockage is already part of the UMa NLoS fit, so only
  /// indoor endpoints take explicit penetration.)
  [[nodiscard]] double o2i_loss_db(const Point& p,
                                   double freq_ghz) const noexcept;

  /// A uniformly random outdoor point (rejection sampling).
  [[nodiscard]] Point random_outdoor_point(sim::Rng& rng) const;

  /// A uniformly random point anywhere in bounds.
  [[nodiscard]] Point random_point(sim::Rng& rng) const;

 private:
  // Builds the uniform grid over the union of `bounds_` and all footprints
  // (so clamped cell coordinates can never miss a building).
  void build_index();

  [[nodiscard]] int col(double x) const noexcept;
  [[nodiscard]] int row(double y) const noexcept;
  // [first, last) building indices (ascending) registered in cell (ix, iy).
  [[nodiscard]] std::pair<const std::uint32_t*, const std::uint32_t*>
  cell_items(int ix, int iy) const noexcept;

  // Invokes `f(ix, iy)` for every grid cell a segment may touch (a small
  // conservative superset); stops early when `f` returns false.
  template <class F>
  bool for_each_segment_cell(const Segment& s, F&& f) const;

  Rect bounds_;
  std::vector<Building> buildings_;

  // Uniform grid (CSR layout): cell (ix, iy) holds the ascending indices of
  // buildings whose footprint overlaps it.
  Point grid_min_;
  double cell_w_ = 1.0, cell_h_ = 1.0;
  double inv_cell_w_ = 1.0, inv_cell_h_ = 1.0;
  int nx_ = 1, ny_ = 1;
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_items_;
  // The same candidates as a bitmask of mask_words_ = ceil(n / 64) words
  // per cell (one word on every paper campus; bit i of word w is building
  // 64 w + i), so a LoS walk tests each building once however many cells
  // it spans.
  std::size_t mask_words_ = 1;
  std::vector<std::uint64_t> cell_mask_;
};

/// Builds the paper's campus: `bounds` 500 m x 920 m, a street grid with
/// rectangular concrete buildings on most blocks and some open areas
/// (sports fields, lawns). Deterministic for a given rng stream.
[[nodiscard]] CampusMap make_campus(sim::Rng rng);

/// Generalized city builder: the same street-grid generator over a
/// `width_m` x `height_m` extent with `open_fraction` of blocks left as
/// open space. make_campus(rng) is exactly
/// make_city_campus(rng, 500, 920, 0.2) — identical draw order, so the
/// paper campus (and every golden derived from it) is unchanged.
[[nodiscard]] CampusMap make_city_campus(sim::Rng rng, double width_m,
                                         double height_m,
                                         double open_fraction = 0.25);

}  // namespace fiveg::geo
