// The paper's execution profile (§5.3) as a reusable experiment harness.
//
// Two customer VMs on one core — V20 (20 % credit) and V70 (70 % credit) —
// plus Dom0 holding the remaining 10 % at the highest priority. Each VM has
// a three-phase inactive/active/inactive profile; the active load is either
// *exact* (100 % of the VM's credited capacity) or *thrashing* (exceeds
// it). Figures 2–10 are this scenario under different scheduler/governor/
// controller combinations; the integration tests assert the same phase
// summaries the benches print.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "cpu/frequency_ladder.hpp"
#include "metrics/trace_recorder.hpp"
#include "sched/scheduler_factory.hpp"

namespace pas::scenario {

enum class LoadKind { kExact, kThrashing };

enum class ControllerKind { kNone, kPas, kUserLevelCredit, kUserLevelDvfsCredit };

struct TwoVmConfig {
  sched::SchedulerKind scheduler = sched::SchedulerKind::kCredit;
  /// Governor name for gov::make_governor; empty = no governor (frequency
  /// pinned at max unless a controller moves it).
  std::string governor = "stable-ondemand";
  ControllerKind controller = ControllerKind::kNone;
  LoadKind load = LoadKind::kExact;

  cpu::FrequencyLadder ladder = cpu::FrequencyLadder::paper_default();

  // --- the time profile; defaults reproduce the paper's ~8000 s runs ---
  common::SimTime total = common::seconds(8000);
  common::SimTime v20_from = common::seconds(500);
  common::SimTime v20_until = common::seconds(6500);
  common::SimTime v70_from = common::seconds(2500);
  common::SimTime v70_until = common::seconds(5000);

  /// Dom0's own CPU demand (absolute %) while any guest is active: backend
  /// I/O processing. Exact-load runs keep it small; thrashing web traffic
  /// loads the backend harder.
  common::Percent dom0_demand = 2.0;

  common::SimTime trace_stride = common::seconds(10);
  std::uint64_t seed = 7;
};

/// Per-phase means over trace samples (transients near phase edges
/// excluded).
struct PhaseSummary {
  std::string name;
  common::SimTime from;
  common::SimTime until;
  double mean_freq_mhz = 0.0;
  double mean_global_pct = 0.0;
  double mean_absolute_pct = 0.0;
  double v20_global_pct = 0.0;
  double v70_global_pct = 0.0;
  double v20_absolute_pct = 0.0;
  double v70_absolute_pct = 0.0;
  double v20_credit_pct = 0.0;  // mean cap the scheduler held for V20
  double v70_credit_pct = 0.0;
};

struct TwoVmResult {
  metrics::TraceRecorder trace{0};
  /// Phases: warmup / V20-only (1) / both (2) / V20-only (3) / idle tail.
  std::vector<PhaseSummary> phases;
  double energy_joules = 0.0;
  double average_watts = 0.0;
  std::uint64_t freq_transitions = 0;
  /// SLA violation fraction per customer VM (saturated windows whose
  /// absolute load fell short of the purchased credit).
  double v20_sla_violation = 0.0;
  double v70_sla_violation = 0.0;
  /// Ids used in the trace.
  common::VmId dom0 = 0, v20 = 1, v70 = 2;
};

[[nodiscard]] TwoVmResult run_two_vm(const TwoVmConfig& config);

/// Renders the figure-style ASCII chart for a result: per-VM global or
/// absolute loads plus the frequency (scaled onto the same 0–100 axis).
[[nodiscard]] std::string render_loads_chart(const TwoVmResult& result, bool absolute,
                                             const std::string& title);

/// Renders the phase-summary table.
[[nodiscard]] std::string render_phase_table(const TwoVmResult& result);

}  // namespace pas::scenario
