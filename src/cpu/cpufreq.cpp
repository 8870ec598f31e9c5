#include "cpu/cpufreq.hpp"

#include <algorithm>
#include <cassert>

namespace pas::cpu {

Cpufreq::Cpufreq(CpuModel& cpu) : cpu_(cpu) {}

std::size_t Cpufreq::request(std::size_t index) {
  index = std::clamp(index, floor_, cpu_.ladder().max_index());
  if (index != cpu_.current_index()) {
    cpu_.set_index(index);
    ++transitions_;
  }
  return index;
}

void Cpufreq::set_floor(std::size_t index) {
  assert(index < cpu_.ladder().size());
  floor_ = index;
  if (cpu_.current_index() < floor_) request(floor_);
}

}  // namespace pas::cpu
