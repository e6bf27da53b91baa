// ASCII charts for the bench harness: the paper's figures are plots, so
// the benches render the reproduced series as terminal line charts and CDF
// curves next to the numeric tables.
#pragma once

#include <string>
#include <vector>

#include "measure/cdf.h"
#include "measure/timeseries.h"

namespace fiveg::measure {

/// Plot area size of every chart: columns (exclusive of the y-axis
/// gutter) and rows.
inline constexpr int kPlotWidth = 72;
inline constexpr int kPlotHeight = 14;

/// Labels shared by the chart functions.
struct PlotOptions {
  std::string title;
  std::string y_label;
  std::string x_label;
};

/// Renders (time, value) points as a line chart; x is seconds.
[[nodiscard]] std::string line_chart(const std::vector<TimePoint>& points,
                                     const PlotOptions& options);

/// Renders an empirical CDF (y: 0..1).
[[nodiscard]] std::string cdf_chart(const Cdf& cdf,
                                    const PlotOptions& options);

}  // namespace fiveg::measure
