// Platform catalog for Table 2: "Execution Times on Different Virtualization
// Platforms".
//
// The paper runs the V20/V70 scenario (pi-app in V20, V70 lazy) on seven
// stacks installed on one HP Elite 8300 (i7-3770) and shows:
//   * fixed-credit platforms (Hyper-V, ESXi, Xen/credit) lose 27–50 % under
//     OnDemand because the underloaded host gets down-clocked;
//   * Xen/PAS cancels the loss entirely;
//   * variable-credit platforms (Xen/SEDF, KVM, VirtualBox) keep the host
//     busy, so OnDemand never down-clocks — 0 % loss, at the price of V20
//     consuming far more than its SLA.
//
// We model each platform as: scheduler family + effective DVFS floor under
// its power policy + extra-time work efficiency. The floor and efficiency
// constants are calibrated once from the paper's measured *Performance*
// column (documented per entry); the OnDemand column and the degradation
// percentages are then produced by the model, not hardcoded.
#pragma once

#include <string>
#include <vector>

#include "common/units.hpp"
#include "cpu/frequency_ladder.hpp"

namespace pas::platform {

enum class SchedulerFamily {
  kFixedCredit,    // cap-enforcing
  kFixedCreditPas, // cap-enforcing + PAS controller (Xen/PAS)
  kVariableCredit, // work-conserving
};

struct PlatformProfile {
  std::string name;
  SchedulerFamily family = SchedulerFamily::kFixedCredit;
  /// Lowest P-state index the platform's OnDemand-equivalent policy will
  /// select on this host (its power-policy floor).
  std::size_t ondemand_floor = 0;
  /// Useful-work fraction of extra-time grants (variable-credit only).
  double extra_work_efficiency = 1.0;
};

/// The i7-3770-like host ladder shared by every platform row:
/// 1700 / 2040 / 2473 / 2800 / 3100 / 3400 MHz
/// (ratios 0.50, 0.60, 0.727, 0.824, 0.912, 1.00 — chosen so the floors of
/// Hyper-V (0.5), Xen (0.6) and ESXi (0.727) are exact ladder states).
[[nodiscard]] cpu::FrequencyLadder table2_ladder();

/// The seven platforms of Table 2.
[[nodiscard]] std::vector<PlatformProfile> table2_platforms();

struct Table2Row {
  std::string name;
  std::string family;
  double t_performance_sec = 0.0;  // execution time, Performance governor
  double t_ondemand_sec = 0.0;     // execution time, OnDemand governor
  double degradation_pct = 0.0;    // (t_ondemand / t_performance - 1) * 100
};

struct Table2Config {
  /// pi-app size. 311.8 max-frequency seconds makes the fixed-credit
  /// Performance rows land near the paper's ~1550–1600 s.
  common::Work pi_work = common::mf_seconds(311.8);
};

/// Runs one platform row (both governor modes).
[[nodiscard]] Table2Row run_platform(const PlatformProfile& profile,
                                     const Table2Config& config = {});

/// Runs the whole table.
[[nodiscard]] std::vector<Table2Row> run_table2(const Table2Config& config = {});

}  // namespace pas::platform
