#include "radio/shadowing.h"

#include <cmath>

namespace fiveg::radio {
namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Uniform (0,1) from a hash, avoiding exact 0 for the log below.
double to_unit(std::uint64_t h) noexcept {
  return (static_cast<double>(h >> 11) + 1.0) / 9007199254740994.0;
}

double g_sigma_offset_db = 0.0;

}  // namespace

void set_shadowing_sigma_offset_db(double offset_db) noexcept {
  g_sigma_offset_db = offset_db;
}

ShadowingField::ShadowingField(std::uint64_t seed)
    : seed_(seed), sigma_db_(kShadowingSigmaDb + g_sigma_offset_db) {}

double ShadowingField::node_value(std::int64_t ix,
                                  std::int64_t iy) const noexcept {
  // Box-Muller on two decorrelated hashes of the node coordinates.
  const std::uint64_t a = static_cast<std::uint64_t>(ix) * 0x9e3779b97f4a7c15ull;
  const std::uint64_t b = static_cast<std::uint64_t>(iy) * 0xc2b2ae3d27d4eb4full;
  const double u1 = to_unit(mix64(seed_ ^ a ^ (b << 1)));
  const double u2 = to_unit(mix64(seed_ ^ b ^ (a << 1) ^ 0x1234567890abcdefull));
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double ShadowingField::at(const geo::Point& p) const noexcept {
  const double gx = p.x / kShadowingCorrDistM;
  const double gy = p.y / kShadowingCorrDistM;
  const auto ix = static_cast<std::int64_t>(std::floor(gx));
  const auto iy = static_cast<std::int64_t>(std::floor(gy));
  const double fx = gx - static_cast<double>(ix);
  const double fy = gy - static_cast<double>(iy);

  const double v00 = node_value(ix, iy);
  const double v10 = node_value(ix + 1, iy);
  const double v01 = node_value(ix, iy + 1);
  const double v11 = node_value(ix + 1, iy + 1);

  const double w00 = (1 - fx) * (1 - fy);
  const double w10 = fx * (1 - fy);
  const double w01 = (1 - fx) * fy;
  const double w11 = fx * fy;
  const double v = v00 * w00 + v10 * w10 + v01 * w01 + v11 * w11;
  // Bilinear blending shrinks the variance mid-cell (to 1/4 at the centre);
  // renormalise by the weight vector's L2 norm so sigma holds everywhere.
  const double norm =
      std::sqrt(w00 * w00 + w10 * w10 + w01 * w01 + w11 * w11);
  return sigma_db_ * v / norm;
}

}  // namespace fiveg::radio
