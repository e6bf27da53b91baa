#include "measure/plot.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

namespace fiveg::measure {
namespace {

struct Range {
  double lo = 0.0;
  double hi = 1.0;

  [[nodiscard]] int bucket(double v, int n) const noexcept {
    if (hi <= lo) return 0;
    const double t = (v - lo) / (hi - lo);
    return std::clamp(static_cast<int>(t * (n - 1) + 0.5), 0, n - 1);
  }
};

Range x_range(const std::vector<TimePoint>& pts) {
  Range r{std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()};
  for (const TimePoint& p : pts) {
    r.lo = std::min(r.lo, sim::to_seconds(p.at));
    r.hi = std::max(r.hi, sim::to_seconds(p.at));
  }
  if (!(r.lo < r.hi)) r = {0.0, 1.0};
  return r;
}

Range y_range(const std::vector<TimePoint>& pts) {
  Range r{std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()};
  for (const TimePoint& p : pts) {
    r.lo = std::min(r.lo, p.value);
    r.hi = std::max(r.hi, p.value);
  }
  if (!(r.lo < r.hi)) r = {r.lo - 1.0, r.lo + 1.0};
  return r;
}

std::string fmt(double v) {
  std::ostringstream ss;
  if (std::fabs(v) >= 1000) {
    ss << std::fixed << std::setprecision(0) << v;
  } else {
    ss << std::setprecision(3) << v;
  }
  return ss.str();
}

// Shared renderer: plots one point set on a character grid.
std::string render(const std::vector<TimePoint>& pts, Range xr, Range yr,
                   const PlotOptions& o) {
  const int w = kPlotWidth;
  const int h = kPlotHeight;
  std::vector<std::string> grid(static_cast<std::size_t>(h),
                                std::string(static_cast<std::size_t>(w), ' '));
  for (const TimePoint& p : pts) {
    const int col = xr.bucket(sim::to_seconds(p.at), w);
    const int row = h - 1 - yr.bucket(p.value, h);
    grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] = '*';
  }

  std::ostringstream os;
  if (!o.title.empty()) os << o.title << "\n";
  const std::string hi_label = fmt(yr.hi);
  const std::string lo_label = fmt(yr.lo);
  const std::size_t gutter = std::max(hi_label.size(), lo_label.size()) + 1;
  for (int r = 0; r < h; ++r) {
    std::string label;
    if (r == 0) label = hi_label;
    if (r == h - 1) label = lo_label;
    os << std::setw(static_cast<int>(gutter)) << label << "|"
       << grid[static_cast<std::size_t>(r)] << "\n";
  }
  os << std::string(gutter, ' ') << "+" << std::string(w, '-') << "\n"
     << std::string(gutter + 1, ' ') << fmt(xr.lo)
     << std::string(std::max<int>(1, w - 12), ' ') << fmt(xr.hi);
  if (!o.x_label.empty()) os << "  (" << o.x_label << ")";
  if (!o.y_label.empty()) os << "  y: " << o.y_label;
  os << "\n";
  return os.str();
}

}  // namespace

std::string line_chart(const std::vector<TimePoint>& points,
                       const PlotOptions& options) {
  return render(points, x_range(points), y_range(points), options);
}

std::string cdf_chart(const Cdf& cdf, const PlotOptions& options) {
  std::vector<TimePoint> pts;
  if (!cdf.empty()) {
    for (const auto& [value, fraction] :
         cdf.curve(static_cast<std::size_t>(kPlotWidth))) {
      // Reuse the line renderer with value on x: encode x as "seconds".
      pts.push_back({sim::from_seconds(value), fraction});
    }
  }
  PlotOptions o = options;
  if (o.y_label.empty()) o.y_label = "CDF";
  return render(pts, x_range(pts), Range{0.0, 1.0}, o);
}

}  // namespace fiveg::measure
