// 2-D geometry primitives for the campus model: points in metres, segments
// (radio paths), and axis-aligned rectangles (building footprints). The
// rectangle/segment predicates are defined inline: they are the innermost
// loop of every coverage sweep, and call overhead was measurable there.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace fiveg::geo {

/// A position on the campus plane, in metres.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point&, const Point&) = default;
};

[[nodiscard]] double distance(const Point& a, const Point& b) noexcept;

/// Azimuth of b as seen from a, in degrees in [0, 360): 0 = +x ("east"),
/// counter-clockwise positive.
[[nodiscard]] double azimuth_deg(const Point& from, const Point& to) noexcept;

/// Smallest absolute angular difference between two azimuths, in [0, 180].
/// Bit-identical to reducing |a - b| with std::fmod(., 360) first.
[[nodiscard]] double angle_diff_deg(double a_deg, double b_deg) noexcept;

/// A straight path between two points (transmitter -> receiver).
struct Segment {
  Point a;
  Point b;

  [[nodiscard]] double length() const noexcept { return distance(a, b); }
  /// Point at parameter t in [0,1] along the segment.
  [[nodiscard]] Point at(double t) const noexcept {
    return {a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
  }
};

/// Axis-aligned rectangle, min corner inclusive / max corner inclusive.
struct Rect {
  Point min;
  Point max;

  [[nodiscard]] bool contains(const Point& p) const noexcept {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }
  [[nodiscard]] double width() const noexcept { return max.x - min.x; }
  [[nodiscard]] double height() const noexcept { return max.y - min.y; }
  [[nodiscard]] Point center() const noexcept {
    return {(min.x + max.x) / 2.0, (min.y + max.y) / 2.0};
  }

  /// True if the segment intersects the rectangle's interior at all.
  [[nodiscard]] bool intersects(const Segment& s) const noexcept;
};

namespace detail {

// Liang-Barsky clipping: returns the [t_enter, t_exit] parameter range of
// the segment inside the rect, or nullopt when it misses entirely.
inline std::optional<std::pair<double, double>> clip(const Rect& r,
                                                     const Segment& s) noexcept {
  const double dx = s.b.x - s.a.x;
  const double dy = s.b.y - s.a.y;
  double t0 = 0.0, t1 = 1.0;

  const auto clip_axis = [&](double p, double q) {
    // Moving by p along this axis; q is the distance to the boundary.
    if (p == 0.0) return q >= 0.0;  // parallel: inside iff q non-negative
    const double t = q / p;
    if (p < 0.0) {
      if (t > t1) return false;
      t0 = std::max(t0, t);
    } else {
      if (t < t0) return false;
      t1 = std::min(t1, t);
    }
    return true;
  };

  if (!clip_axis(-dx, s.a.x - r.min.x)) return std::nullopt;
  if (!clip_axis(dx, r.max.x - s.a.x)) return std::nullopt;
  if (!clip_axis(-dy, s.a.y - r.min.y)) return std::nullopt;
  if (!clip_axis(dy, r.max.y - s.a.y)) return std::nullopt;
  if (t0 > t1) return std::nullopt;
  return std::make_pair(t0, t1);
}

}  // namespace detail

inline bool Rect::intersects(const Segment& s) const noexcept {
  return detail::clip(*this, s).has_value();
}

}  // namespace fiveg::geo
