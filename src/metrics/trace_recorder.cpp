#include "metrics/trace_recorder.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/csv.hpp"

namespace pas::metrics {

void TraceRecorder::grow_vm_count(std::size_t vm_count) {
  if (vm_count < vm_count_)
    throw std::invalid_argument("TraceRecorder: cannot shrink vm_count");
  if (vm_count == vm_count_) return;
  auto regrid = [&](std::vector<double>& col) {
    std::vector<double> wide(t_.size() * vm_count, 0.0);
    for (std::size_t row = 0; row < t_.size(); ++row)
      std::copy_n(col.data() + row * vm_count_, vm_count_, wide.data() + row * vm_count);
    col = std::move(wide);
  };
  regrid(vm_global_);
  regrid(vm_absolute_);
  regrid(vm_credit_);
  regrid(vm_saturated_);
  vm_count_ = vm_count;
}

void TraceRecorder::append(common::SimTime t, double freq_mhz, double global_load_pct,
                           double absolute_load_pct, std::span<const double> vm_global,
                           std::span<const double> vm_absolute,
                           std::span<const double> vm_credit,
                           std::span<const double> vm_saturated) {
  assert(vm_global.size() == vm_count_ && vm_absolute.size() == vm_count_ &&
         vm_credit.size() == vm_count_ && vm_saturated.size() == vm_count_);
  t_.push_back(t);
  freq_.push_back(freq_mhz);
  global_.push_back(global_load_pct);
  absolute_.push_back(absolute_load_pct);
  vm_global_.insert(vm_global_.end(), vm_global.begin(), vm_global.end());
  vm_absolute_.insert(vm_absolute_.end(), vm_absolute.begin(), vm_absolute.end());
  vm_credit_.insert(vm_credit_.end(), vm_credit.begin(), vm_credit.end());
  vm_saturated_.insert(vm_saturated_.end(), vm_saturated.begin(), vm_saturated.end());
}

void TraceRecorder::append_idle_rows(std::span<const common::SimTime> ts, double freq_mhz,
                                     std::span<const double> vm_credit) {
  assert(vm_credit.size() == vm_count_);
  if (ts.empty()) return;
  const std::size_t rows = ts.size();
  t_.insert(t_.end(), ts.begin(), ts.end());
  freq_.insert(freq_.end(), rows, freq_mhz);
  global_.insert(global_.end(), rows, 0.0);
  absolute_.insert(absolute_.end(), rows, 0.0);
  vm_global_.insert(vm_global_.end(), rows * vm_count_, 0.0);
  vm_absolute_.insert(vm_absolute_.end(), rows * vm_count_, 0.0);
  vm_saturated_.insert(vm_saturated_.end(), rows * vm_count_, 0.0);
  for (std::size_t r = 0; r < rows; ++r)
    vm_credit_.insert(vm_credit_.end(), vm_credit.begin(), vm_credit.end());
}

TraceRecorder::SampleView TraceRecorder::sample(std::size_t row) const {
  assert(row < t_.size());
  const std::size_t base = row * vm_count_;
  SampleView v;
  v.t = t_[row];
  v.freq_mhz = freq_[row];
  v.global_load_pct = global_[row];
  v.absolute_load_pct = absolute_[row];
  v.vm_global_pct = {vm_global_.data() + base, vm_count_};
  v.vm_absolute_pct = {vm_absolute_.data() + base, vm_count_};
  v.vm_credit_pct = {vm_credit_.data() + base, vm_count_};
  v.vm_saturated = {vm_saturated_.data() + base, vm_count_};
  return v;
}

std::vector<double> TraceRecorder::extract(const std::vector<double>& column,
                                           common::VmId vm) const {
  assert(vm < vm_count_);
  std::vector<double> out;
  out.reserve(t_.size());
  for (std::size_t row = 0; row < t_.size(); ++row)
    out.push_back(column[row * vm_count_ + vm]);
  return out;
}

std::vector<double> TraceRecorder::series_vm_global(common::VmId vm) const {
  return extract(vm_global_, vm);
}

std::vector<double> TraceRecorder::series_vm_absolute(common::VmId vm) const {
  return extract(vm_absolute_, vm);
}

std::vector<double> TraceRecorder::series_vm_credit(common::VmId vm) const {
  return extract(vm_credit_, vm);
}

std::vector<double> TraceRecorder::series_time_sec() const {
  std::vector<double> out;
  out.reserve(t_.size());
  for (const common::SimTime t : t_) out.push_back(t.sec());
  return out;
}

void TraceRecorder::write_csv(const std::string& path) const {
  common::CsvWriter csv{path};
  // Build the header dynamically for the VM columns.
  std::string head = "t_sec,freq_mhz,global_pct,absolute_pct";
  for (std::size_t i = 0; i < vm_count_; ++i) head += ",vm" + std::to_string(i) + "_global_pct";
  for (std::size_t i = 0; i < vm_count_; ++i)
    head += ",vm" + std::to_string(i) + "_absolute_pct";
  for (std::size_t i = 0; i < vm_count_; ++i) head += ",vm" + std::to_string(i) + "_credit_pct";
  csv.raw_line(head);

  std::vector<double> row;
  row.reserve(4 + 3 * vm_count_);
  for (std::size_t r = 0; r < t_.size(); ++r) {
    row.clear();
    const SampleView s = sample(r);
    row.push_back(s.t.sec());
    row.push_back(s.freq_mhz);
    row.push_back(s.global_load_pct);
    row.push_back(s.absolute_load_pct);
    for (double v : s.vm_global_pct) row.push_back(v);
    for (double v : s.vm_absolute_pct) row.push_back(v);
    for (double v : s.vm_credit_pct) row.push_back(v);
    csv.row(row);
  }
}

}  // namespace pas::metrics
