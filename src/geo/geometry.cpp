#include "geo/geometry.h"

#include <cmath>

namespace fiveg::geo {

double distance(const Point& a, const Point& b) noexcept {
  return std::hypot(a.x - b.x, a.y - b.y);
}

double azimuth_deg(const Point& from, const Point& to) noexcept {
  const double rad = std::atan2(to.y - from.y, to.x - from.x);
  double deg = rad * 180.0 / M_PI;
  if (deg < 0) deg += 360.0;
  return deg;
}

double angle_diff_deg(double a_deg, double b_deg) noexcept {
  // d = fmod(|a - b|, 360), without the library call for |a - b| < 720:
  // below 360 it is x itself, and on [360, 720) x - 360 is exact
  // (Sterbenz), as fmod's result always is. NaN and infinities fail both
  // comparisons and take fmod, as does anything larger.
  const double x = std::fabs(a_deg - b_deg);
  double d;
  if (x < 360.0) {
    d = x;
  } else if (x < 720.0) {
    d = x - 360.0;
  } else {
    d = std::fmod(x, 360.0);
  }
  return d > 180.0 ? 360.0 - d : d;
}

}  // namespace fiveg::geo
