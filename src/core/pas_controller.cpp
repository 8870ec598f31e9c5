#include "core/pas_controller.hpp"

#include <cassert>

namespace pas::core {

void PasController::attach(const hv::HostView& view) {
  // Snapshot the configured credits: these are the SLAs that compensation
  // preserves, regardless of whatever the caps currently are.
  initial_credits_.assign(view.initial_credits.begin(), view.initial_credits.end());
}

void PasController::on_tick(common::SimTime /*now*/, const hv::HostView& view) {
  assert(view.monitor != nullptr && view.cpufreq != nullptr && view.scheduler != nullptr);
  ++ticks_;

  const metrics::LoadMonitor& mon = *view.monitor;
  // The three-window averaged load (paper footnote 5): the raw last-window
  // load makes PAS twitchy. The monitor accumulates *work*, so its absolute
  // load is exact even when the frequency changed mid-window — no eq.1
  // rescaling needed here.
  const double absolute = mon.avg_absolute_load_pct();
  const double global = mon.avg_global_load_pct();

  const cpu::FrequencyLadder& ladder = view.cpufreq->ladder();
  const std::size_t current = view.cpufreq->current_index();
  std::size_t target = compute_new_freq_index_saturating(ladder, absolute, global, current);
  if (target < current) {
    // A downward move must persist across the smoothing horizon; a single
    // stale-window dip right after an up-ramp must not yank the frequency
    // back down (that re-saturates the host and causes flapping). Down-moves
    // must hold for this many consecutive ticks (~3 s at the 30 ms tick);
    // upward moves are immediate: QoS beats energy.
    constexpr int kDownPatienceTicks = 100;
    if (++down_streak_ < kDownPatienceTicks) target = current;
  } else {
    down_streak_ = 0;
  }

  // Listing 1.2 — updateDvfsAndCredits.
  for (std::size_t i = 0; i < view.vms.size(); ++i) {
    const common::Percent init = initial_credits_[i];
    // Uncapped null-credit VMs have no SLA to preserve.
    if (init <= 0.0) continue;
    view.scheduler->set_cap(view.vms[i], compensated_credit(init, ladder, target));
  }
  view.cpufreq->request(target);
}

}  // namespace pas::core
