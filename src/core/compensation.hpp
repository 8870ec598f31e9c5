// The paper's equations (§4.2), implemented as pure functions.
//
// Eq. 1 (frequency/performance proportionality for loads):
//     L_max / L_i = (F_i / F_max) * cf_i
// Eq. 2 (same for execution times):
//     T_max / T_i = (F_i / F_max) * cf_i
// Eq. 3 (credit/performance proportionality):
//     T_init / T_j = C_j / C_init
// Eq. 4 (the compensation rule — the contribution):
//     C_j = C_init / (ratio_i * cf_i)
//
// Plus Listing 1.1 (computeNewFreq) and the absolute-load definition:
//     Absolute_load = Global_load * (F_cur / F_max) * cf_cur
//
// Everything stateful (when to apply these, to which VMs, with what
// smoothing) lives in the controllers; keeping the math free-standing makes
// the §5.2 proportionality verification and the property tests direct.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "cpu/frequency_ladder.hpp"

namespace pas::core {

/// Eq. 1 rearranged: the load this measured load would represent at the
/// maximum frequency. `ratio` = F_cur/F_max, `cf` = cf_cur.
[[nodiscard]] double absolute_load_pct(double global_load_pct, double ratio, double cf);

/// Eq. 1 forward: the load a given absolute load represents at state
/// (ratio, cf). Unbounded above 100 (an infeasible demand stays infeasible).
[[nodiscard]] double load_at_state_pct(double absolute_load_pct, double ratio, double cf);

/// Eq. 2: predicted execution time at (ratio, cf) given the time at the
/// maximum frequency.
[[nodiscard]] double predicted_time_at_state(double t_max, double ratio, double cf);

/// Eq. 3: predicted execution time when the credit changes from c_init to
/// c_new at a fixed frequency.
[[nodiscard]] double predicted_time_for_credit(double t_init, common::Percent c_init,
                                               common::Percent c_new);

/// Eq. 4: the credit that preserves, at state (ratio, cf), the computing
/// capacity the VM had with `initial` credit at the maximum frequency. May
/// exceed 100 % ("the sum of the VM credits may be more than 100%" — §4.2).
[[nodiscard]] common::Percent compensated_credit(common::Percent initial, double ratio,
                                                 double cf);

/// Listing 1.1 — computeNewFreq: the lowest P-state whose computing
/// capacity (ratio * 100 * cf) strictly exceeds the absolute load; the
/// maximum state if none does.
[[nodiscard]] std::size_t compute_new_freq_index(const cpu::FrequencyLadder& ladder,
                                                 double absolute_load_pct);

/// Convenience: eq. 4 evaluated against a ladder state.
[[nodiscard]] common::Percent compensated_credit(common::Percent initial,
                                                 const cpu::FrequencyLadder& ladder,
                                                 std::size_t state_index);

/// Listing 1.1 with two stability amendments (both deviations from the
/// paper):
///
/// 1. Saturation escalation. A saturated host (global load pinned at
///    ~100 %) measures an absolute load exactly equal to the current
///    state's capacity — the true demand is unobservable from below. The
///    paper's strict `>` comparison then keeps the frequency where it is
///    forever (on real hardware measurement noise breaks the tie; a
///    deterministic simulator deadlocks). When the global load is at or
///    above `saturation_threshold_pct` and a higher state exists, force at
///    least one step up; repeated ticks climb to a state that actually
///    absorbs the demand. PasController and UserLevelDvfsCreditManager
///    both run with the default 98 %; tests vary it.
///
/// 2. Down-scaling headroom. Moving DOWN to a state whose capacity only
///    marginally exceeds the absolute load re-saturates the host (the
///    compensated credits no longer fit), which re-triggers escalation — a
///    flapping cycle. A downward move must leave `down_headroom_pct` of
///    capacity margin; if the Listing 1.1 state does not, the target walks
///    up until one does (or the current state is kept). Upward moves are
///    never delayed: QoS beats energy.
[[nodiscard]] std::size_t compute_new_freq_index_saturating(
    const cpu::FrequencyLadder& ladder, double absolute_load_pct, double global_load_pct,
    std::size_t current_index, double saturation_threshold_pct = 98.0,
    double down_headroom_pct = 3.0);

}  // namespace pas::core
