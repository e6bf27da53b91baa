// Unit tests for the statistics toolkit: Welford stats, CDFs, histograms,
// time series windowing, and table formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "measure/cdf.h"
#include "measure/histogram.h"
#include "measure/json.h"
#include "measure/plot.h"
#include "measure/stats.h"
#include "measure/table.h"
#include "measure/timeseries.h"

namespace fiveg::measure {
namespace {

using sim::kMillisecond;
using sim::kSecond;

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i) * 10;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(CdfTest, QuantilesOfUniformSamples) {
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(i);
  Cdf c(v);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 100.0);
  EXPECT_NEAR(c.quantile(0.25), 25.0, 1e-9);
}

TEST(CdfTest, FractionBelow) {
  Cdf c({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(c.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_below(2.0), 0.5);
  EXPECT_DOUBLE_EQ(c.fraction_below(10.0), 1.0);
}

TEST(CdfTest, AddKeepsOrderingLazy) {
  Cdf c;
  c.add(5);
  c.add(1);
  c.add(3);
  EXPECT_DOUBLE_EQ(c.min(), 1.0);
  EXPECT_DOUBLE_EQ(c.max(), 5.0);
  EXPECT_DOUBLE_EQ(c.mean(), 3.0);
}

TEST(CdfTest, EmptyThrowsOnQuantile) {
  Cdf c;
  EXPECT_THROW((void)c.quantile(0.5), std::logic_error);
  EXPECT_DOUBLE_EQ(c.fraction_below(1.0), 0.0);
}

TEST(CdfTest, SingleSampleReturnsItForEveryQuantile) {
  Cdf c;
  c.add(42.5);
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(c.quantile(q), 42.5);
  }
  EXPECT_DOUBLE_EQ(c.min(), 42.5);
  EXPECT_DOUBLE_EQ(c.max(), 42.5);
  EXPECT_DOUBLE_EQ(c.mean(), 42.5);
}

TEST(CdfTest, AllEqualSamplesAreDegenerate) {
  Cdf c;
  for (int i = 0; i < 100; ++i) c.add(-7.25);
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_DOUBLE_EQ(c.quantile(q), -7.25);
  }
  EXPECT_DOUBLE_EQ(c.fraction_below(-7.25), 1.0);
  EXPECT_DOUBLE_EQ(c.fraction_below(-7.26), 0.0);
}

// The pinned endpoint convention (see cdf.h): p0 == min and p100 == max
// exactly, and out-of-range q clamps to them.
TEST(CdfTest, EndpointConventionPinned) {
  Cdf c({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(c.quantile(-3.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(2.0), 5.0);
  // Interior: type-7 position q*(n-1); q=0.375 -> position 1.5 -> 2.5.
  EXPECT_DOUBLE_EQ(c.quantile(0.375), 2.5);
}

TEST(RunningStatsTest, SingleSample) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_DOUBLE_EQ(s.sum(), 3.5);
}

TEST(RunningStatsTest, AllEqualSamplesHaveZeroVariance) {
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(11.0);
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 11.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 11.0);
  EXPECT_DOUBLE_EQ(s.max(), 11.0);
}

TEST(RunningStatsTest, MergeEmptyIntoEmpty) {
  RunningStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(CdfTest, CurveIsMonotone) {
  Cdf c;
  for (int i = 0; i < 500; ++i) c.add(std::cos(i) * 7);
  const auto pts = c.curve(50);
  ASSERT_EQ(pts.size(), 50u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].first, pts[i - 1].first);
    EXPECT_GE(pts[i].second, pts[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(HistogramTest, PaperTable2Bins) {
  // The exact RSRP bin edges used in the paper's Table 2.
  Histogram h({-140, -105, -90, -80, -70, -60, -40});
  h.add(-100);  // [-105,-90)
  h.add(-85);   // [-90,-80)
  h.add(-85);
  h.add(-50);   // [-60,-40)
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 2u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_DOUBLE_EQ(h.fraction(2), 0.5);
  EXPECT_EQ(h.bin_label(1), "[-105, -90)");
}

TEST(HistogramTest, OutOfRangeSaturates) {
  Histogram h({0, 1, 2});
  h.add(-5);
  h.add(10);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(HistogramTest, RejectsBadEdges) {
  EXPECT_THROW(Histogram({1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(TimeSeriesTest, SummarizeWindow) {
  TimeSeries ts;
  ts.add(0, 1.0);
  ts.add(kSecond, 3.0);
  ts.add(2 * kSecond, 5.0);
  const auto all = ts.summarize();
  EXPECT_EQ(all.count(), 3u);
  EXPECT_DOUBLE_EQ(all.mean(), 3.0);
  const auto mid = ts.summarize(kSecond, 2 * kSecond);
  EXPECT_EQ(mid.count(), 2u);
  EXPECT_DOUBLE_EQ(mid.mean(), 4.0);
}

TEST(TimeSeriesTest, WindowSumsBucketCorrectly) {
  TimeSeries ts;
  // Two packets in window 0, one in window 2, none in window 1.
  ts.add(10 * kMillisecond, 100.0);
  ts.add(90 * kMillisecond, 50.0);
  ts.add(250 * kMillisecond, 10.0);
  const auto sums = ts.window_sums(0, 299 * kMillisecond, 100 * kMillisecond);
  ASSERT_EQ(sums.size(), 3u);
  EXPECT_DOUBLE_EQ(sums[0].value, 150.0);
  EXPECT_DOUBLE_EQ(sums[1].value, 0.0);
  EXPECT_DOUBLE_EQ(sums[2].value, 10.0);
}

TEST(TimeSeriesTest, WindowMeans) {
  TimeSeries ts;
  ts.add(0, 2.0);
  ts.add(1, 4.0);
  ts.add(kSecond, 10.0);
  const auto means = ts.window_means(0, kSecond, kSecond);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_DOUBLE_EQ(means[0].value, 3.0);
  EXPECT_DOUBLE_EQ(means[1].value, 10.0);
}

TEST(TimeSeriesTest, WindowRejectsNonPositive) {
  TimeSeries ts;
  EXPECT_THROW((void)ts.window_sums(0, 10, 0), std::invalid_argument);
}

TEST(TextTableTest, FormatsAlignedColumns) {
  TextTable t("Demo", {"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("== Demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha | 1"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTableTest, ShortRowsPadded) {
  TextTable t("T", {"a", "b", "c"});
  t.add_row({"x"});
  std::ostringstream os;
  t.print(os);  // must not crash on missing cells
  EXPECT_EQ(t.rows(), 1u);
}

TEST(PlotTest, LineChartRendersPointsAndAxes) {
  std::vector<TimePoint> pts;
  for (int i = 0; i <= 10; ++i) pts.push_back({i * kSecond, i * 2.0});
  PlotOptions o;
  o.title = "ramp";
  o.x_label = "s";
  const std::string s = line_chart(pts, o);
  EXPECT_NE(s.find("ramp"), std::string::npos);
  EXPECT_NE(s.find('*'), std::string::npos);
  EXPECT_NE(s.find("20"), std::string::npos);  // y max label
  EXPECT_NE(s.find("(s)"), std::string::npos);
  // Height rows + title + axis rows.
  EXPECT_GE(std::count(s.begin(), s.end(), '\n'),
            static_cast<long>(kPlotHeight));
}

TEST(PlotTest, EmptyAndFlatInputsAreSafe) {
  EXPECT_FALSE(line_chart({}, PlotOptions{}).empty());
  std::vector<TimePoint> flat{{0, 5.0}, {kSecond, 5.0}};
  EXPECT_NE(line_chart(flat, PlotOptions{}).find('*'), std::string::npos);
  Cdf empty;
  EXPECT_FALSE(cdf_chart(empty, PlotOptions{}).empty());
}

TEST(PlotTest, CdfChartMonotone) {
  Cdf c;
  for (int i = 0; i < 200; ++i) c.add(i % 37);
  const std::string s = cdf_chart(c, PlotOptions{});
  EXPECT_NE(s.find('*'), std::string::npos);
  EXPECT_NE(s.find("CDF"), std::string::npos);
}

TEST(TextTableTest, NumberFormatters) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pm(5.0, 0.5, 1), "5.0 +/- 0.5");
  EXPECT_EQ(TextTable::pct(0.0807), "8.07%");
}

// Property sweep: CDF quantile and fraction_below are inverse-consistent
// across distributions.
class CdfPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CdfPropertyTest, QuantileFractionRoundTrip) {
  Cdf c;
  const int seed = GetParam();
  for (int i = 0; i < 1000; ++i) {
    c.add(std::fmod(std::abs(std::sin(i * seed + 0.5)) * 97.0, 13.0));
  }
  for (double q = 0.05; q < 1.0; q += 0.05) {
    const double x = c.quantile(q);
    // fraction_below(quantile(q)) >= q (up to one sample of slack).
    EXPECT_GE(c.fraction_below(x) + 1.0 / 1000, q);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfPropertyTest, ::testing::Values(1, 2, 3, 5, 8));

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonWriter::escape("line\nbreak\ttab\r"),
            "line\\nbreak\\ttab\\r");
  EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
  // UTF-8 payload bytes pass through.
  EXPECT_EQ(JsonWriter::escape("±5 dBm"), "±5 dBm");
}

TEST(JsonWriterTest, NumbersAreByteStable) {
  EXPECT_EQ(JsonWriter::number(42), "42");
  EXPECT_EQ(JsonWriter::number(-3), "-3");
  EXPECT_EQ(JsonWriter::number(0), "0");
  EXPECT_EQ(JsonWriter::number(1.5), "1.5");
  // Non-finite values have no JSON spelling; they render as null.
  EXPECT_EQ(JsonWriter::number(std::nan("")), "null");
  EXPECT_EQ(JsonWriter::number(HUGE_VAL), "null");
  // Round-trip: parse the rendering back and compare.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(JsonWriter::number(v)), v);
}

TEST(JsonWriterTest, NestedStructureRendersExactly) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("name", "fig7");
  w.kv("ok", true);
  w.key("points");
  w.begin_array();
  w.begin_array();
  w.value(1.5);
  w.value(2);
  w.end_array();
  w.end_array();
  w.key("empty");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"name\": \"fig7\",\n"
            "  \"ok\": true,\n"
            "  \"points\": [\n"
            "    [\n"
            "      1.5,\n"
            "      2\n"
            "    ]\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}");
}

}  // namespace
}  // namespace fiveg::measure
