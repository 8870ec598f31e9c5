#include "common/ascii_chart.hpp"

#include <gtest/gtest.h>

namespace pas::common {
namespace {

TEST(AsciiChartTest, RendersTitleAxisAndLegend) {
  ChartSeries s{"load", '*', {0, 25, 50, 75, 100}};
  ChartOptions opt;
  opt.title = "My Chart";
  opt.width = 20;
  opt.height = 5;
  const std::string out = render_chart(std::vector<ChartSeries>{s}, opt);
  EXPECT_NE(out.find("My Chart"), std::string::npos);
  EXPECT_NE(out.find("legend: *=load"), std::string::npos);
  EXPECT_NE(out.find("100.0 |"), std::string::npos);
  EXPECT_NE(out.find("0.0 |"), std::string::npos);
}

// Plot area only: everything before the legend line.
std::string plot_area(const std::string& out) {
  return out.substr(0, out.find("legend"));
}

TEST(AsciiChartTest, ConstantSeriesDrawsFlatLine) {
  ChartSeries s{"c", '#', std::vector<double>(50, 50.0)};
  ChartOptions opt;
  opt.width = 10;
  opt.height = 5;
  const std::string out = plot_area(render_chart(std::vector<ChartSeries>{s}, opt));
  // Mid row (value 50 of 0..100 over 5 rows -> row index 2 from top).
  std::size_t hashes = 0;
  for (char c : out) {
    if (c == '#') ++hashes;
  }
  EXPECT_EQ(hashes, 10u);
}

TEST(AsciiChartTest, LaterSeriesOverwrites) {
  ChartSeries a{"a", 'a', std::vector<double>(10, 50.0)};
  ChartSeries b{"b", 'b', std::vector<double>(10, 50.0)};
  ChartOptions opt;
  opt.width = 10;
  opt.height = 5;
  const std::string out = plot_area(render_chart(std::vector<ChartSeries>{a, b}, opt));
  // Both map to the same cells; 'b' drawn last wins everywhere.
  EXPECT_EQ(out.find('a'), std::string::npos);
  std::size_t bs = 0;
  for (char c : out) {
    if (c == 'b') ++bs;
  }
  EXPECT_EQ(bs, 10u);
}

TEST(AsciiChartTest, ClampsOutOfRangeValues) {
  ChartSeries s{"s", '*', {-50.0, 250.0}};
  ChartOptions opt;
  opt.width = 10;
  opt.height = 4;
  // Should not crash and should draw within bounds.
  const std::string out = render_chart(std::vector<ChartSeries>{s}, opt);
  EXPECT_FALSE(out.empty());
}

TEST(AsciiChartTest, EmptySeries) {
  ChartSeries s{"empty", '*', {}};
  ChartOptions opt;
  const std::string out = render_chart(std::vector<ChartSeries>{s}, opt);
  EXPECT_NE(out.find("legend"), std::string::npos);
}

TEST(AsciiChartTest, ResamplingPreservesPlateauMean) {
  // 100 samples: first half 20, second half 80; resampled to 10 buckets the
  // first 5 buckets must be 20 and the last 5 must be 80.
  std::vector<double> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i < 50 ? 20.0 : 80.0;
  ChartSeries s{"s", '*', v};
  ChartOptions opt;
  opt.width = 10;
  opt.height = 11;  // 0..100 in steps of 10
  const std::string out = plot_area(render_chart(std::vector<ChartSeries>{s}, opt));
  // Row for 20 and row for 80 each contain 5 stars.
  std::size_t stars = 0;
  for (char c : out) {
    if (c == '*') ++stars;
  }
  EXPECT_EQ(stars, 10u);
}

}  // namespace
}  // namespace pas::common
