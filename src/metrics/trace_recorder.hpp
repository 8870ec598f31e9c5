// Time-series recorder: samples the quantities the paper plots, at a fixed
// stride, so benches can regenerate each figure.
//
// Each sample row holds, per VM, the global and absolute load of the last
// monitor window, plus the current processor frequency — i.e. exactly the
// series in Figs. 2–10.
//
// Storage is struct-of-arrays: one flat preallocated column per scalar and
// one `rows * vm_count` column per per-VM series, so recording a sample on
// the simulation hot path performs no per-row vector allocations and
// column extraction is a straight copy. Rows are exposed through
// `SampleView` (spans into the columns), which reads like the old
// row-struct API.
#pragma once

#include <cstddef>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace pas::metrics {

/// Assembled row, used to feed add() (tests/tools). The recorder itself
/// stores columns, not these.
struct TraceSample {
  common::SimTime t;
  double freq_mhz = 0.0;
  double global_load_pct = 0.0;    // whole host, last window
  double absolute_load_pct = 0.0;  // whole host, last window
  std::vector<double> vm_global_pct;
  std::vector<double> vm_absolute_pct;
  std::vector<double> vm_credit_pct;  // current scheduler cap per VM
  /// 1.0 if the VM was saturated (wanted the CPU essentially the whole
  /// window) when sampled, else 0.0. Drives SLA accounting: only a
  /// saturated VM exercises its SLA.
  std::vector<double> vm_saturated;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t vm_count) : vm_count_(vm_count) {}

  /// Appends one row from column data (the host's allocation-free path).
  /// Every span must have exactly vm_count() elements.
  void append(common::SimTime t, double freq_mhz, double global_load_pct,
              double absolute_load_pct, std::span<const double> vm_global,
              std::span<const double> vm_absolute, std::span<const double> vm_credit,
              std::span<const double> vm_saturated);

  /// Row-struct convenience wrapper over append().
  void add(const TraceSample& sample);

  /// Bulk-appends one row per element of `ts` for a host whose monitor
  /// reads all-zero: frequency and per-VM credits are constant across the
  /// rows, every load/saturation column is 0.0. Value-identical to calling
  /// append() once per instant with those arguments — this is the
  /// fast-path primitive behind hv::Host::skip_idle_to, which proves the
  /// host quiescent and then zero-fills the trace in one go.
  void append_idle_rows(std::span<const common::SimTime> ts, double freq_mhz,
                        std::span<const double> vm_credit);

  /// Widens the per-VM columns to `vm_count` mid-recording (a host gained a
  /// slot): historical rows are padded with 0.0 in the new columns, so
  /// every row — old and new — reads at the final width. Shrinking throws.
  void grow_vm_count(std::size_t vm_count);

  /// Read-only view of one recorded row; spans point into the recorder's
  /// columns and are invalidated by the next append.
  struct SampleView {
    common::SimTime t;
    double freq_mhz = 0.0;
    double global_load_pct = 0.0;
    double absolute_load_pct = 0.0;
    std::span<const double> vm_global_pct;
    std::span<const double> vm_absolute_pct;
    std::span<const double> vm_credit_pct;
    std::span<const double> vm_saturated;
  };

  [[nodiscard]] SampleView sample(std::size_t row) const;

  class SampleIterator {
   public:
    using value_type = SampleView;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::input_iterator_tag;

    SampleIterator(const TraceRecorder* rec, std::size_t row) : rec_(rec), row_(row) {}
    SampleView operator*() const { return rec_->sample(row_); }
    SampleIterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator==(const SampleIterator& other) const { return row_ == other.row_; }
    bool operator!=(const SampleIterator& other) const { return row_ != other.row_; }

   private:
    const TraceRecorder* rec_;
    std::size_t row_;
  };

  /// Lightweight range over all rows; behaves like the old
  /// `const std::vector<TraceSample>&` return (size/front/back/[]/
  /// iteration), but materializes views on demand.
  class SampleRange {
   public:
    explicit SampleRange(const TraceRecorder* rec) : rec_(rec) {}
    [[nodiscard]] std::size_t size() const { return rec_->size(); }
    [[nodiscard]] bool empty() const { return rec_->size() == 0; }
    [[nodiscard]] SampleView operator[](std::size_t row) const { return rec_->sample(row); }
    [[nodiscard]] SampleView front() const { return rec_->sample(0); }
    [[nodiscard]] SampleView back() const { return rec_->sample(rec_->size() - 1); }
    [[nodiscard]] SampleIterator begin() const { return {rec_, 0}; }
    [[nodiscard]] SampleIterator end() const { return {rec_, rec_->size()}; }

   private:
    const TraceRecorder* rec_;
  };

  [[nodiscard]] SampleRange samples() const { return SampleRange{this}; }
  [[nodiscard]] std::size_t size() const { return t_.size(); }
  [[nodiscard]] std::size_t vm_count() const { return vm_count_; }
  [[nodiscard]] bool empty() const { return t_.empty(); }

  /// Extracts one column as a vector (for charts/summaries).
  [[nodiscard]] std::vector<double> series_freq() const { return freq_; }
  [[nodiscard]] std::vector<double> series_vm_global(common::VmId vm) const;
  [[nodiscard]] std::vector<double> series_vm_absolute(common::VmId vm) const;
  [[nodiscard]] std::vector<double> series_vm_credit(common::VmId vm) const;
  [[nodiscard]] std::vector<double> series_time_sec() const;

  /// Writes the full trace as CSV to `path`
  /// (t_sec, freq_mhz, global, absolute, vm<i>_global..., vm<i>_absolute...,
  /// vm<i>_credit...).
  void write_csv(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<double> extract(const std::vector<double>& column,
                                            common::VmId vm) const;

  std::size_t vm_count_;
  // Scalar columns (one element per row).
  std::vector<common::SimTime> t_;
  std::vector<double> freq_, global_, absolute_;
  // Per-VM columns, row-major: element row * vm_count_ + vm.
  std::vector<double> vm_global_, vm_absolute_, vm_credit_, vm_saturated_;
};

}  // namespace pas::metrics
