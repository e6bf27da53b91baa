// Unit tests for the geometry, building and campus models.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "geo/building.h"
#include "geo/campus.h"
#include "geo/geometry.h"
#include "geo/route.h"
#include "sim/rng.h"

namespace fiveg::geo {
namespace {

TEST(GeometryTest, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(GeometryTest, Azimuth) {
  EXPECT_DOUBLE_EQ(azimuth_deg({0, 0}, {1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(azimuth_deg({0, 0}, {0, 1}), 90.0);
  EXPECT_DOUBLE_EQ(azimuth_deg({0, 0}, {-1, 0}), 180.0);
  EXPECT_DOUBLE_EQ(azimuth_deg({0, 0}, {0, -1}), 270.0);
}

TEST(GeometryTest, AngleDiffWrapsAround) {
  EXPECT_DOUBLE_EQ(angle_diff_deg(10, 350), 20.0);
  EXPECT_DOUBLE_EQ(angle_diff_deg(0, 180), 180.0);
  EXPECT_DOUBLE_EQ(angle_diff_deg(90, 90), 0.0);
  EXPECT_DOUBLE_EQ(angle_diff_deg(720, 0), 0.0);
}

// The fmod-free reduction must return the bits of the plain definition,
// fmod(|a - b|, 360) folded into [0, 180], everywhere: on the branch
// boundaries, past them, for signed zeros, NaN and infinities, and on
// random pairs.
TEST(GeometryTest, AngleDiffMatchesFmodDefinitionBitExact) {
  const auto reference = [](double a, double b) {
    const double d = std::fmod(std::fabs(a - b), 360.0);
    return d > 180.0 ? 360.0 - d : d;
  };
  const auto same_bits = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  using limits = std::numeric_limits<double>;
  std::vector<double> edges = {0.0, -0.0, 180.0, 360.0, 540.0, 720.0, 1080.0};
  for (const double at : {180.0, 360.0, 720.0}) {
    edges.push_back(std::nextafter(at, 0.0));
    edges.push_back(std::nextafter(at, 1e9));
  }
  edges.insert(edges.end(), {1e17, 1e300, limits::max(), limits::denorm_min(),
                             limits::quiet_NaN(), limits::infinity()});
  for (const double a : edges) {
    for (const double b : {0.0, -0.0, 90.0, -360.0}) {
      for (const double x : {a, -a}) {
        EXPECT_TRUE(same_bits(angle_diff_deg(x, b), reference(x, b)))
            << "a=" << x << " b=" << b;
        EXPECT_TRUE(same_bits(angle_diff_deg(b, x), reference(b, x)))
            << "a=" << b << " b=" << x;
      }
    }
  }
  sim::Rng rng(360);
  for (int i = 0; i < 200000; ++i) {
    // Azimuths as the antenna sees them (one in [0, 360), the boresight
    // anywhere in a few turns), then wider spreads.
    const double scale = i % 3 == 0 ? 360.0 : (i % 3 == 1 ? 1500.0 : 1e6);
    const double a = rng.uniform(0.0, 360.0);
    const double b = rng.uniform(-scale, scale);
    ASSERT_TRUE(same_bits(angle_diff_deg(a, b), reference(a, b)))
        << "a=" << a << " b=" << b;
  }
}

TEST(GeometryTest, SegmentInterpolation) {
  const Segment s{{0, 0}, {10, 20}};
  EXPECT_EQ(s.at(0.5), (Point{5, 10}));
  EXPECT_DOUBLE_EQ(s.length(), std::sqrt(500.0));
}

TEST(RectTest, Contains) {
  const Rect r{{0, 0}, {10, 10}};
  EXPECT_TRUE(r.contains({5, 5}));
  EXPECT_TRUE(r.contains({0, 0}));    // boundary inclusive
  EXPECT_TRUE(r.contains({10, 10}));
  EXPECT_FALSE(r.contains({10.1, 5}));
  EXPECT_FALSE(r.contains({-0.1, 5}));
}

TEST(RectTest, Intersects) {
  const Rect r{{0, 0}, {10, 10}};
  EXPECT_TRUE(r.intersects({{-5, 5}, {15, 5}}));
  EXPECT_TRUE(r.intersects({{2, 2}, {3, 3}}));
  EXPECT_FALSE(r.intersects({{-5, -5}, {-1, 20}}));
  // Vertical segment just outside the right edge.
  EXPECT_FALSE(r.intersects({{10.5, -5}, {10.5, 15}}));
  // Vertical segment exactly on the edge counts as touching.
  EXPECT_TRUE(r.intersects({{10.0, -5}, {10.0, 15}}));
}

TEST(BuildingTest, WallLossGrowsWithFrequency) {
  const double lte = wall_loss_db(Material::kConcrete, 1.85);
  const double nr = wall_loss_db(Material::kConcrete, 3.5);
  EXPECT_GT(nr, lte);
  EXPECT_GT(lte, 5.0);
  // Drywall is much lighter than concrete at either band.
  EXPECT_LT(wall_loss_db(Material::kDrywall, 3.5),
            0.5 * wall_loss_db(Material::kConcrete, 3.5));
}

TEST(CampusTest, GeneratedCampusMatchesPaperDims) {
  const CampusMap campus = make_campus(sim::Rng(42));
  EXPECT_DOUBLE_EQ(campus.bounds().width(), 500.0);
  EXPECT_DOUBLE_EQ(campus.bounds().height(), 920.0);
  EXPECT_GT(campus.buildings().size(), 10u);
}

TEST(CampusTest, DeterministicForSeed) {
  const CampusMap a = make_campus(sim::Rng(42));
  const CampusMap b = make_campus(sim::Rng(42));
  ASSERT_EQ(a.buildings().size(), b.buildings().size());
  for (std::size_t i = 0; i < a.buildings().size(); ++i) {
    EXPECT_EQ(a.buildings()[i].footprint.min, b.buildings()[i].footprint.min);
  }
}

TEST(CampusTest, IndoorOutdoorAndLos) {
  const CampusMap campus = make_campus(sim::Rng(42));
  const Building& b = campus.buildings().front();
  const Point inside = b.footprint.center();
  EXPECT_TRUE(campus.is_indoor(inside));
  sim::Rng rng(7);
  const Point outside = campus.random_outdoor_point(rng);
  EXPECT_FALSE(campus.is_indoor(outside));
  // A path into a building cannot be LoS.
  EXPECT_FALSE(campus.has_los({outside, inside}));
}

TEST(CampusTest, OpenPathHasLos) {
  const CampusMap campus = make_campus(sim::Rng(42));
  // Walk along the outer boundary: streets are building-free by construction.
  const Segment edge{{1.0, 1.0}, {1.0, 919.0}};
  EXPECT_TRUE(campus.has_los(edge));
}

TEST(RouteTest, LengthAndInterpolation) {
  const Route r({{0, 0}, {0, 100}, {50, 100}});
  EXPECT_DOUBLE_EQ(r.length_m(), 150.0);
  EXPECT_EQ(r.position_at(50), (Point{0, 50}));
  EXPECT_EQ(r.position_at(125), (Point{25, 100}));
  EXPECT_EQ(r.position_at(-10), (Point{0, 0}));
  EXPECT_EQ(r.position_at(1e9), (Point{50, 100}));
}

TEST(RouteTest, SamplesCoverRoute) {
  const Route r({{0, 0}, {0, 90}});
  const auto pts = r.samples(30.0);
  ASSERT_EQ(pts.size(), 4u);  // 0, 30, 60 + endpoint
  EXPECT_EQ(pts.back(), (Point{0, 90}));
}

TEST(RouteTest, RejectsDegenerateInputs) {
  EXPECT_THROW(Route({{0, 0}}), std::invalid_argument);
  const Route r({{0, 0}, {1, 0}});
  EXPECT_THROW((void)r.samples(0.0), std::invalid_argument);
}

TEST(RouteTest, SurveyRouteSpansCampus) {
  const CampusMap campus = make_campus(sim::Rng(42));
  const Route survey = make_survey_route(campus);
  // The paper's survey walks 6.019 km; ours should be the same order.
  EXPECT_GT(survey.length_m(), 4000.0);
  EXPECT_LT(survey.length_m(), 12000.0);
  for (const Point& p : survey.waypoints()) {
    EXPECT_TRUE(campus.bounds().contains(p));
  }
}

}  // namespace
}  // namespace fiveg::geo
