// Streaming moments for the simulator's summaries.
//
// Used by the two-VM scenario to summarize per-phase loads ("mean absolute
// load of V20 during phase 1"), by the calibration module to average cf
// measurements across workloads, and by WebApp for its request latencies.
#pragma once

#include <cstddef>

namespace pas::common {

/// Streaming mean/variance/min/max via Welford's algorithm.
///
/// Numerically stable for long runs (an 8000 s simulation records ~800 k
/// samples into some of these).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace pas::common
