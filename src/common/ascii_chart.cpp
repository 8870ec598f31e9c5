#include "common/ascii_chart.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace pas::common {

namespace {

/// Averages `values` into `buckets` equal x ranges. Empty buckets repeat the
/// previous bucket's value (series shorter than the bucket count).
std::vector<double> resample(std::span<const double> values, int buckets) {
  std::vector<double> out(static_cast<std::size_t>(buckets), 0.0);
  if (values.empty()) return out;
  const double per = static_cast<double>(values.size()) / buckets;
  double prev = values.front();
  for (int b = 0; b < buckets; ++b) {
    const auto lo = static_cast<std::size_t>(b * per);
    auto hi = static_cast<std::size_t>((b + 1) * per);
    hi = std::min(std::max(hi, lo + 1), values.size());
    if (lo >= values.size()) {
      out[static_cast<std::size_t>(b)] = prev;
      continue;
    }
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += values[i];
    prev = sum / static_cast<double>(hi - lo);
    out[static_cast<std::size_t>(b)] = prev;
  }
  return out;
}

}  // namespace

std::string render_chart(std::span<const ChartSeries> series, const ChartOptions& options) {
  const int w = std::max(options.width, 10);
  const int h = std::max(options.height, 4);
  const double lo = options.y_min;
  const double hi = options.y_max > lo ? options.y_max : lo + 1.0;

  std::vector<std::string> grid(static_cast<std::size_t>(h),
                                std::string(static_cast<std::size_t>(w), ' '));

  for (const auto& s : series) {
    const auto ys = resample(s.values, w);
    for (int x = 0; x < w; ++x) {
      const double v = std::clamp(ys[static_cast<std::size_t>(x)], lo, hi);
      const double frac = (v - lo) / (hi - lo);
      const int row = static_cast<int>(std::lround(frac * (h - 1)));
      // row 0 is the bottom of the plot; grid row 0 is the top line printed.
      grid[static_cast<std::size_t>(h - 1 - row)][static_cast<std::size_t>(x)] = s.glyph;
    }
  }

  std::string out;
  if (!options.title.empty()) {
    out += options.title;
    out += '\n';
  }
  if (!options.y_label.empty()) {
    out += "  [y: ";
    out += options.y_label;
    out += "]\n";
  }
  char buf[64];
  for (int r = 0; r < h; ++r) {
    const double yv = hi - (hi - lo) * r / (h - 1);
    std::snprintf(buf, sizeof(buf), "%8.1f |", yv);
    out += buf;
    out += grid[static_cast<std::size_t>(r)];
    out += '\n';
  }
  out += "         +";
  out.append(static_cast<std::size_t>(w), '-');
  out += '\n';
  if (!options.x_label.empty()) {
    out += "          ";
    out += options.x_label;
    out += '\n';
  }
  out += "          legend:";
  for (const auto& s : series) {
    out += ' ';
    out += s.glyph;
    out += '=';
    out += s.name;
  }
  out += '\n';
  return out;
}

}  // namespace pas::common
