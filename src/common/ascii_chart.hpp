// ASCII time-series renderer.
//
// The paper's evaluation is ten figures of load/frequency-vs-time plots.
// Each bench binary reproduces its figure both as CSV and as an ASCII chart
// printed to stdout, so the *shape* (plateaus, ramps, oscillation) is
// reviewable directly in bench_output.txt.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace pas::common {

/// One plotted series: y-samples (uniform x spacing) and the glyph used to
/// draw it.
struct ChartSeries {
  std::string name;
  char glyph = '*';
  std::vector<double> values;
};

struct ChartOptions {
  int width = 100;   // plot columns (x is resampled to this many buckets)
  int height = 20;   // plot rows
  double y_min = 0.0;
  double y_max = 100.0;
  std::string title;
  std::string y_label;
  std::string x_label;
};

/// Renders series over a common x axis into a multi-line string.
///
/// Later series overwrite earlier ones where they collide (draw the most
/// important series last). Values are averaged within each x bucket, which
/// preserves plateaus and makes oscillation show up as a dense band.
[[nodiscard]] std::string render_chart(std::span<const ChartSeries> series,
                                       const ChartOptions& options);

}  // namespace pas::common
