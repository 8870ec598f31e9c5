#include "governor/governors.hpp"

#include <memory>
#include <stdexcept>

namespace pas::gov {

double absolute_demand(double util, const cpu::FrequencyLadder& ladder, std::size_t index) {
  return util * ladder.capacity_pct(index) / 100.0;
}

std::size_t lowest_fitting_state(double demand, double fill, const cpu::FrequencyLadder& ladder) {
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (ladder.capacity_pct(i) / 100.0 * fill >= demand) return i;
  }
  return ladder.max_index();
}

OndemandGovernor::OndemandGovernor(OndemandConfig config) : cfg_(config) {
  if (cfg_.sampling_period.us() <= 0)
    throw std::invalid_argument("OndemandGovernor: sampling period must be positive");
  if (cfg_.up_threshold <= 0.0 || cfg_.up_threshold > 1.0)
    throw std::invalid_argument("OndemandGovernor: up_threshold must be in (0,1]");
}

std::size_t OndemandGovernor::decide(const Sample& sample, const cpu::FrequencyLadder& ladder) {
  // Stock behaviour: any sample above the threshold jumps straight to the
  // top; anything below immediately re-fits downward. No memory at all —
  // that is what makes it "aggressive and unstable" (Fig. 3).
  if (sample.util > cfg_.up_threshold) return ladder.max_index();
  const double demand = absolute_demand(sample.util, ladder, sample.current_index);
  return lowest_fitting_state(demand, cfg_.up_threshold, ladder);
}

StableOndemandGovernor::StableOndemandGovernor(StableOndemandConfig config) : cfg_(config) {
  if (cfg_.sampling_period.us() <= 0)
    throw std::invalid_argument("StableOndemandGovernor: sampling period must be positive");
  if (cfg_.down_patience < 1)
    throw std::invalid_argument("StableOndemandGovernor: down_patience must be >= 1");
}

std::size_t StableOndemandGovernor::decide(const Sample& sample,
                                           const cpu::FrequencyLadder& ladder) {
  // Decisions use the three-window averaged load, not the instantaneous
  // sample; QoS-critical up-scaling is immediate, energy-saving
  // down-scaling waits for a consistent streak.
  // Demand must fit within kUpFill of the candidate state's capacity...
  constexpr double kUpFill = 0.80;
  // ...and a step down needs it to fit within kDownFill of the *lower* state.
  constexpr double kDownFill = 0.70;
  const double demand = absolute_demand(sample.avg_util, ladder, sample.current_index);
  const std::size_t cur = sample.current_index;
  const std::size_t fit = lowest_fitting_state(demand, kUpFill, ladder);
  if (fit > cur) {
    down_streak_ = 0;
    return fit;  // scale up as far as needed, immediately
  }
  if (cur == 0) {
    down_streak_ = 0;
    return cur;
  }
  const bool lower_fits = ladder.capacity_pct(cur - 1) / 100.0 * kDownFill >= demand;
  if (lower_fits) {
    if (++down_streak_ >= cfg_.down_patience) {
      down_streak_ = 0;
      return cur - 1;  // one level at a time
    }
  } else {
    down_streak_ = 0;
  }
  return cur;
}

ConservativeGovernor::ConservativeGovernor(ConservativeConfig config) : cfg_(config) {
  if (cfg_.sampling_period.us() <= 0)
    throw std::invalid_argument("ConservativeGovernor: sampling period must be positive");
  if (cfg_.down_threshold >= cfg_.up_threshold)
    throw std::invalid_argument("ConservativeGovernor: thresholds must satisfy down < up");
}

std::size_t ConservativeGovernor::decide(const Sample& sample,
                                         const cpu::FrequencyLadder& ladder) {
  if (sample.util > cfg_.up_threshold && sample.current_index < ladder.max_index())
    return sample.current_index + 1;
  if (sample.util < cfg_.down_threshold && sample.current_index > 0)
    return sample.current_index - 1;
  return sample.current_index;
}

std::unique_ptr<Governor> make_governor(const std::string& name) {
  if (name == "performance") return std::make_unique<PerformanceGovernor>();
  if (name == "powersave") return std::make_unique<PowersaveGovernor>();
  if (name == "userspace") return std::make_unique<UserspaceGovernor>();
  if (name == "ondemand") return std::make_unique<OndemandGovernor>();
  if (name == "stable-ondemand") return std::make_unique<StableOndemandGovernor>();
  if (name == "conservative") return std::make_unique<ConservativeGovernor>();
  throw std::invalid_argument("make_governor: unknown governor '" + name + "'");
}

}  // namespace pas::gov
