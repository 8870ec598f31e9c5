// Machine models for the paper's Table 1 (cf on different processors).
//
// The paper measures cf_min on five Grid5000 machines and finds it "most of
// the time equal to one" but as low as 0.80 on an E5-2620. Striking detail:
// every cf<1 part in their table is a Turbo Boost part, and
// nominal/turbo frequency explains the measured value almost exactly
// (i7-3770: 3.4/3.943 = 0.862 vs measured 0.86206; E5-2620: 2.0/2.49 =
// 0.803 vs 0.80338). The mechanism: eq. 1's Lmax is measured at the top
// P-state, where the core silently runs *above* nominal; the nominal
// frequency ratio then overestimates how much slower the lower states are,
// and the deficit lands in cf.
//
// We model exactly that: a machine's top P-state runs at its effective
// turbo frequency; lower states run at their nominal frequency, scaled by a
// small per-machine low-state efficiency (uncore/memory clocking effects,
// the reason non-turbo parts still measure cf slightly below 1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/cpu_model.hpp"
#include "cpu/frequency_ladder.hpp"

namespace pas::calib {

struct MachineSpec {
  std::string name;
  /// Nominal (advertised) P-state frequencies, ascending, in MHz.
  std::vector<double> nominal_mhz;
  /// Effective speed of the top P-state in MHz (turbo); 0 = no turbo (top
  /// state runs at its nominal frequency).
  double turbo_mhz = 0.0;
  /// True-speed multiplier applied to the non-top states (≈1).
  double low_state_efficiency = 1.0;
  /// Seed for per-run measurement noise.
  std::uint64_t seed = 1;
};

/// The five processors of Table 1, parameters chosen so the *modeled*
/// ground-truth cf matches the paper's measured value (mechanism above).
[[nodiscard]] std::vector<MachineSpec> table1_machines();

/// Ground-truth cf of the machine's lowest state under this model:
///   cf_min = (f_nominal_top / f_effective_top) * low_state_efficiency
[[nodiscard]] double expected_cf_min(const MachineSpec& spec);

/// The machine's nominal ladder with cf = 1 (the naive assumption eq. 1
/// starts from — calibration has to *discover* the real cf by measurement,
/// exactly as §5.2 does).
[[nodiscard]] cpu::FrequencyLadder nominal_ladder(const MachineSpec& spec);

/// The machine's true-speed function under the turbo model (plugs into
/// cpu::CpuModel::set_speed_override or hv::HostConfig::speed_override).
[[nodiscard]] cpu::CpuModel::SpeedFn speed_fn(const MachineSpec& spec);

/// Convenience: nominal ladder + speed override assembled into a CpuModel.
[[nodiscard]] cpu::CpuModel make_cpu_model(const MachineSpec& spec);

}  // namespace pas::calib
