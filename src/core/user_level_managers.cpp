#include "core/user_level_managers.hpp"

namespace pas::core {

void UserLevelCreditManager::attach(const hv::HostView& view) {
  initial_credits_.assign(view.initial_credits.begin(), view.initial_credits.end());
}

void UserLevelCreditManager::on_tick(common::SimTime /*now*/, const hv::HostView& view) {
  // Design 1 only *reads* the frequency; the governor owns it.
  const cpu::FrequencyLadder& ladder = view.cpufreq->ladder();
  const std::size_t cur = view.cpufreq->current_index();
  for (std::size_t i = 0; i < view.vms.size(); ++i) {
    const common::Percent init = initial_credits_[i];
    if (init <= 0.0) continue;
    view.scheduler->set_cap(view.vms[i], compensated_credit(init, ladder, cur));
  }
}

void UserLevelDvfsCreditManager::attach(const hv::HostView& view) {
  initial_credits_.assign(view.initial_credits.begin(), view.initial_credits.end());
}

void UserLevelDvfsCreditManager::on_tick(common::SimTime /*now*/, const hv::HostView& view) {
  const cpu::FrequencyLadder& ladder = view.cpufreq->ladder();
  const double absolute = view.monitor->avg_absolute_load_pct();
  const std::size_t target = compute_new_freq_index_saturating(
      ladder, absolute, view.monitor->avg_global_load_pct(), view.cpufreq->current_index());
  for (std::size_t i = 0; i < view.vms.size(); ++i) {
    const common::Percent init = initial_credits_[i];
    if (init <= 0.0) continue;
    view.scheduler->set_cap(view.vms[i], compensated_credit(init, ladder, target));
  }
  view.cpufreq->request(target);
}

}  // namespace pas::core
