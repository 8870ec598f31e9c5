// Cross-scheduler properties, parameterized over credit splits and
// frequencies:
//   * fixed-credit: a thrashing VM's time share converges to its cap;
//   * SEDF: every VM receives at least its guaranteed slice under full
//     contention;
//   * neither scheduler ever lets total busy time exceed wall time;
//   * CreditScheduler::pick's early-exit search agrees with a brute-force
//     rank oracle on random runnable sets, priorities, caps and
//     charge/account sequences;
//   * CreditScheduler's lazily folded balances read exactly as balances
//     refilled eagerly at every accounting tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "hypervisor/host.hpp"
#include "sched/credit_scheduler.hpp"
#include "sched/sedf_scheduler.hpp"
#include "workload/synthetic.hpp"

namespace pas::sched {
namespace {

using common::seconds;
using common::SimTime;

struct ShareCase {
  double credit_a;
  double credit_b;
  std::size_t freq_index;
};

std::string case_name(const ::testing::TestParamInfo<ShareCase>& info) {
  return "a" + std::to_string(static_cast<int>(info.param.credit_a)) + "_b" +
         std::to_string(static_cast<int>(info.param.credit_b)) + "_f" +
         std::to_string(info.param.freq_index);
}

class CreditShareProperty : public ::testing::TestWithParam<ShareCase> {};

TEST_P(CreditShareProperty, ThrashingVmsGetTheirCapsRegardlessOfFrequency) {
  const auto& p = GetParam();
  hv::HostConfig hc;
  hc.trace_stride = SimTime{};
  hv::Host host{hc, std::make_unique<CreditScheduler>()};
  hv::VmConfig a;
  a.credit = p.credit_a;
  host.add_vm(a, std::make_unique<wl::BusyLoop>());
  hv::VmConfig b;
  b.credit = p.credit_b;
  host.add_vm(b, std::make_unique<wl::BusyLoop>());
  host.cpufreq().request(p.freq_index);
  host.run_until(seconds(60));

  // Fixed credit: time share equals cap, at ANY frequency (that is exactly
  // the paper's problem — the time share is preserved, the work is not).
  EXPECT_NEAR(host.vm(0).total_busy.sec(), 60.0 * p.credit_a / 100.0,
              0.02 * 60.0 * p.credit_a / 100.0 + 0.5);
  EXPECT_NEAR(host.vm(1).total_busy.sec(), 60.0 * p.credit_b / 100.0,
              0.02 * 60.0 * p.credit_b / 100.0 + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Grid, CreditShareProperty,
                         ::testing::Values(ShareCase{20, 70, 4}, ShareCase{20, 70, 0},
                                           ShareCase{10, 90, 2}, ShareCase{50, 50, 1},
                                           ShareCase{30, 30, 3}, ShareCase{5, 95, 4},
                                           ShareCase{40, 20, 0}),
                         case_name);

class SedfGuaranteeProperty : public ::testing::TestWithParam<ShareCase> {};

TEST_P(SedfGuaranteeProperty, GuaranteedSliceHeldUnderContention) {
  const auto& p = GetParam();
  hv::HostConfig hc;
  hc.trace_stride = SimTime{};
  hv::Host host{hc, std::make_unique<SedfScheduler>()};
  hv::VmConfig a;
  a.credit = p.credit_a;
  host.add_vm(a, std::make_unique<wl::BusyLoop>());
  hv::VmConfig b;
  b.credit = p.credit_b;
  host.add_vm(b, std::make_unique<wl::BusyLoop>());
  host.cpufreq().request(p.freq_index);
  host.run_until(seconds(60));

  EXPECT_GE(host.vm(0).total_busy.sec(), 60.0 * p.credit_a / 100.0 - 1.0);
  EXPECT_GE(host.vm(1).total_busy.sec(), 60.0 * p.credit_b / 100.0 - 1.0);
  // Work conserving: no idle while both thrash.
  EXPECT_LT(host.idle_time().sec(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Grid, SedfGuaranteeProperty,
                         ::testing::Values(ShareCase{20, 70, 4}, ShareCase{20, 70, 0},
                                           ShareCase{10, 90, 2}, ShareCase{50, 50, 1},
                                           ShareCase{45, 45, 3}),
                         case_name);

TEST(SchedulerPropertyTest, BusyNeverExceedsWallTime) {
  for (const bool sedf : {false, true}) {
    hv::HostConfig hc;
    hc.trace_stride = SimTime{};
    std::unique_ptr<hv::Scheduler> s;
    if (sedf) {
      s = std::make_unique<SedfScheduler>();
    } else {
      s = std::make_unique<CreditScheduler>();
    }
    hv::Host host{hc, std::move(s)};
    for (int i = 0; i < 4; ++i) {
      hv::VmConfig c;
      c.credit = 25.0;
      host.add_vm(c, std::make_unique<wl::BusyLoop>());
    }
    host.run_until(seconds(30));
    SimTime busy{};
    for (common::VmId i = 0; i < 4; ++i) busy += host.vm(i).total_busy;
    EXPECT_LE(busy.us(), seconds(30).us());
  }
}

/// Every credit balance kept the eager way: each accounting tick refills
/// every VM at once (min(b + refill, burst), 0 for null credit), as the
/// Xen Credit scheduler states it. CreditScheduler folds the ticks into a
/// balance only when it next touches it; the two must read alike.
struct EagerCredit {
  struct Vm {
    double cap = 0.0;
    std::int64_t refill = 0;
    std::int64_t burst = 0;
    std::int64_t balance = 0;
  };
  CreditSchedulerConfig cfg;
  std::vector<Vm> vms;

  void set_rate(Vm& v, double cap) const {
    const auto period = static_cast<double>(cfg.accounting_period.us());
    v.cap = cap;
    v.refill = std::llround(cap / 100.0 * period);
    v.burst = std::llround(cfg.burst_periods * cap / 100.0 * period);
  }
  void add(double cap) {
    Vm v;
    set_rate(v, cap);
    v.balance = v.refill;
    vms.push_back(v);
  }
  void account() {
    for (Vm& v : vms) v.balance = v.cap <= 0.0 ? 0 : std::min(v.balance + v.refill, v.burst);
  }
  void charge(common::VmId id, std::int64_t us) { vms[id].balance -= us; }
  void set_cap(common::VmId id, double cap) {
    Vm& v = vms[id];
    set_rate(v, cap);
    v.balance = std::min(v.balance, v.burst);
  }
  void import(common::VmId id, std::int64_t us) { vms[id].balance = us; }
  [[nodiscard]] bool under(common::VmId id) const {
    return vms[id].cap > 0.0 && vms[id].balance > 0;
  }
  [[nodiscard]] bool settled() const {
    return std::all_of(vms.begin(), vms.end(), [](const Vm& v) {
      return v.cap <= 0.0 ? v.balance == 0 : std::min(v.balance + v.refill, v.burst) == v.balance;
    });
  }
};

/// The credit pick rule written out by brute force over the eager
/// balances: every runnable VM gets a rank (priority first, then
/// round-robin distance from `cursor`), the UNDER pass takes the best VM
/// holding positive balance, the OVER pass the best null-credit VM.
common::VmId oracle_pick(const EagerCredit& eager, const std::vector<int>& priority,
                         const std::vector<common::VmId>& runnable, std::size_t cursor) {
  const std::size_t n = priority.size();
  const auto best_of = [&](auto eligible) {
    common::VmId best = common::kInvalidVm;
    std::size_t best_rank = 0;
    for (const common::VmId id : runnable) {
      if (!eligible(id)) continue;
      const std::size_t rank = (id + n - cursor % n) % n;
      if (best == common::kInvalidVm || priority[id] > priority[best] ||
          (priority[id] == priority[best] && rank < best_rank)) {
        best = id;
        best_rank = rank;
      }
    }
    return best;
  };
  const common::VmId under = best_of([&](common::VmId id) { return eager.under(id); });
  if (under != common::kInvalidVm) return under;
  return best_of([&](common::VmId id) { return eager.vms[id].cap <= 0.0; });
}

TEST(CreditPickProperty, EarlyExitSearchMatchesBruteForceRankOracle) {
  constexpr double kCaps[] = {0.0, 3.0, 10.0, 25.0, 60.0};
  std::size_t under_picks = 0, over_picks = 0, idles = 0, preempted_by_priority = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    common::Rng rng{seed};
    const std::size_t n = 1 + rng.next_below(12);
    CreditScheduler sched;
    EagerCredit eager;
    std::vector<int> priority(n);
    for (common::VmId id = 0; id < n; ++id) {
      hv::VmConfig vc;
      vc.credit = kCaps[rng.next_below(std::size(kCaps))];
      vc.priority = static_cast<int>(rng.next_below(3));
      priority[id] = vc.priority;
      sched.add_vm(id, vc);
      eager.add(vc.credit);
    }
    std::size_t cursor = 0;  // mirrors the scheduler's round-robin cursor
    std::vector<common::VmId> runnable;
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t action = rng.next_below(20);
      if (action == 0) {
        sched.account(SimTime{});
        eager.account();
        continue;
      }
      if (action == 1) {
        const auto id = static_cast<common::VmId>(rng.next_below(n));
        const double cap = kCaps[rng.next_below(std::size(kCaps))];
        sched.set_cap(id, cap);
        eager.set_cap(id, cap);
        continue;
      }
      if (action == 2) {
        const auto id = static_cast<common::VmId>(rng.next_below(n));
        const auto us = static_cast<std::int64_t>(rng.next_below(40'000));
        sched.import_credit(id, common::usec(us));
        eager.import(id, us);
        continue;
      }
      runnable.clear();
      for (common::VmId id = 0; id < n; ++id)
        if (rng.chance(0.6)) runnable.push_back(id);
      if (runnable.empty()) runnable.push_back(static_cast<common::VmId>(rng.next_below(n)));

      const common::VmId want = oracle_pick(eager, priority, runnable, cursor);
      const common::VmId got = sched.pick(SimTime{}, runnable);
      ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
      if (got == common::kInvalidVm) {
        ++idles;
        continue;
      }
      ++(sched.cap(got) > 0.0 ? under_picks : over_picks);
      // A nearer runnable VM of lower priority lost to the winner.
      const auto rank = [&](common::VmId id) { return (id + n - cursor % n) % n; };
      for (const common::VmId id : runnable)
        if (rank(id) < rank(got) && priority[id] < priority[got]) {
          ++preempted_by_priority;
          break;
        }
      cursor = got + 1;
      const auto busy = static_cast<std::int64_t>(1 + rng.next_below(10'000));
      sched.charge(got, common::usec(busy));
      eager.charge(got, busy);
    }
  }
  // Vacuity guards: both passes, the idle answer and priority preemption
  // were all exercised.
  EXPECT_GT(under_picks, 1000u);
  EXPECT_GT(over_picks, 1000u);
  EXPECT_GT(idles, 100u);
  EXPECT_GT(preempted_by_priority, 100u);
}

/// The first VM whose folded balance or export differs from the eager
/// mirror, or a refill_settled() that disagrees with it.
::testing::AssertionResult reads_as_eager(const CreditScheduler& sched,
                                          const EagerCredit& eager) {
  for (common::VmId id = 0; id < eager.vms.size(); ++id) {
    const std::int64_t want = eager.vms[id].balance;
    if (sched.balance(id).us() != want || sched.export_credit(id).us() != want)
      return ::testing::AssertionFailure()
             << "vm " << id << " (cap " << eager.vms[id].cap << "): balance "
             << sched.balance(id).us() << " export " << sched.export_credit(id).us()
             << ", eager " << want;
  }
  if (sched.refill_settled() != eager.settled())
    return ::testing::AssertionFailure() << "refill_settled " << sched.refill_settled();
  return ::testing::AssertionSuccess();
}

TEST(CreditFoldProperty, FoldedRefillsMatchEagerTicks) {
  // Null credit, caps whose burst rounds to 0 or 1 us, ordinary caps and a
  // cap above 100 % (a PAS cap at low frequency).
  constexpr double kCaps[] = {0.0, 0.001, 0.002, 3.0, 25.0, 60.0, 170.0};
  std::size_t long_runs = 0, hoards_pulled_down = 0, settled = 0, unsettled = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    common::Rng rng{seed};
    const std::size_t n = 1 + rng.next_below(12);
    CreditScheduler sched;
    EagerCredit eager;
    std::vector<int> priority(n);
    for (common::VmId id = 0; id < n; ++id) {
      hv::VmConfig vc;
      vc.credit = kCaps[rng.next_below(std::size(kCaps))];
      vc.priority = static_cast<int>(rng.next_below(3));
      priority[id] = vc.priority;
      sched.add_vm(id, vc);
      eager.add(vc.credit);
    }
    std::size_t cursor = 0;
    std::vector<common::VmId> runnable;
    for (int step = 0; step < 1000; ++step) {
      const auto id = static_cast<common::VmId>(rng.next_below(n));
      const std::uint64_t action = rng.next_below(16);
      if (action < 4) {
        // A run of ticks: mostly a few, sometimes thousands untouched.
        const std::uint64_t ticks = rng.chance(0.05) ? rng.next_below(5'001) : rng.next_below(6);
        long_runs += ticks >= 1'000;
        if (ticks > 0 && std::any_of(eager.vms.begin(), eager.vms.end(),
                                     [](const auto& v) { return v.balance > v.burst; }))
          ++hoards_pulled_down;
        for (std::uint64_t k = 0; k < ticks; ++k) {
          sched.account(SimTime{});
          eager.account();
        }
      } else if (action < 9) {
        const auto busy = static_cast<std::int64_t>(1 + rng.next_below(20'000));
        sched.charge(id, common::usec(busy));
        eager.charge(id, busy);
      } else if (action < 11) {
        const double cap = kCaps[rng.next_below(std::size(kCaps))];
        sched.set_cap(id, cap);
        eager.set_cap(id, cap);
      } else if (action < 12) {
        // Above the burst limit, negative, or anything in between.
        const auto r = static_cast<std::int64_t>(rng.next_below(100'000));
        const std::int64_t us = rng.chance(0.4)   ? eager.vms[id].burst + 1 + r
                                : rng.chance(0.5) ? -1 - r
                                                  : r;
        sched.import_credit(id, common::usec(us));
        eager.import(id, us);
      } else {
        runnable.clear();
        for (common::VmId v = 0; v < n; ++v)
          if (rng.chance(0.6)) runnable.push_back(v);
        if (runnable.empty()) runnable.push_back(id);
        const common::VmId got = sched.pick(SimTime{}, runnable);
        ASSERT_EQ(got, oracle_pick(eager, priority, runnable, cursor))
            << "seed " << seed << " step " << step;
        if (got != common::kInvalidVm) {
          cursor = got + 1;
          sched.charge(got, common::msec(10));
          eager.charge(got, common::msec(10).us());
        }
      }
      ASSERT_TRUE(reads_as_eager(sched, eager)) << "seed " << seed << " step " << step;
      ++(eager.settled() ? settled : unsettled);
    }
  }
  // Vacuity guards: long untouched stretches, hoards above the burst limit
  // met by a tick, and both answers of refill_settled().
  EXPECT_GT(long_runs, 20u);
  EXPECT_GT(hoards_pulled_down, 100u);
  EXPECT_GT(settled, 100u);
  EXPECT_GT(unsettled, 1000u);
}

}  // namespace
}  // namespace pas::sched
