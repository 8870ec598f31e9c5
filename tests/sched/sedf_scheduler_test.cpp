#include "sched/sedf_scheduler.hpp"

#include <gtest/gtest.h>

#include "hypervisor/host.hpp"
#include "workload/synthetic.hpp"

namespace pas::sched {
namespace {

using common::kInvalidVm;
using common::msec;
using common::seconds;
using common::SimTime;
using common::VmId;

hv::VmConfig vm_cfg(double credit, bool extra = true,
                    common::SimTime period = msec(100)) {
  hv::VmConfig c;
  c.credit = credit;
  c.sedf_extra = extra;
  c.sedf_period = period;
  return c;
}

TEST(SedfSchedulerTest, SliceDerivedFromCredit) {
  SedfScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  EXPECT_EQ(s.remaining_slice(0), msec(20));
  EXPECT_DOUBLE_EQ(s.cap(0), 20.0);
}

TEST(SedfSchedulerTest, EdfPicksEarliestDeadline) {
  SedfScheduler s;
  s.add_vm(0, vm_cfg(20.0, true, msec(200)));  // deadline 200 ms
  s.add_vm(1, vm_cfg(20.0, true, msec(100)));  // deadline 100 ms
  const VmId ids[] = {0, 1};
  EXPECT_EQ(s.pick(SimTime{}, ids), 1u);
}

TEST(SedfSchedulerTest, GuaranteedSliceConsumedThenExtra) {
  SedfScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  const VmId ids[] = {0};
  EXPECT_EQ(s.pick(SimTime{}, ids), 0u);
  EXPECT_DOUBLE_EQ(s.work_efficiency(0), 1.0);
  s.charge(0, msec(20));
  EXPECT_EQ(s.remaining_slice(0), SimTime{});
  // Work-conserving: still picked, as extra time.
  EXPECT_EQ(s.pick(msec(20), ids), 0u);
  s.charge(0, msec(10));
  EXPECT_EQ(s.extra_time_granted(), msec(10));
}

TEST(SedfSchedulerTest, ExtraFlagFalseIdlesInstead) {
  SedfScheduler s;
  s.add_vm(0, vm_cfg(20.0, /*extra=*/false));
  const VmId ids[] = {0};
  s.charge(0, msec(20));
  EXPECT_EQ(s.pick(msec(20), ids), kInvalidVm);
}

TEST(SedfSchedulerTest, PeriodRolloverRefillsSlice) {
  SedfScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  s.charge(0, msec(20));
  const VmId ids[] = {0};
  (void)s.pick(msec(100), ids);  // next period
  EXPECT_EQ(s.remaining_slice(0), msec(20));
}

TEST(SedfSchedulerTest, LongIdleSkipsPeriodsInConstantTime) {
  SedfScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  const VmId ids[] = {0};
  // Ten simulated years of idleness must not loop per period.
  (void)s.pick(seconds(315'000'000), ids);
  EXPECT_EQ(s.remaining_slice(0), msec(20));
}

TEST(SedfSchedulerTest, ExtraWorkEfficiencyReported) {
  SedfSchedulerConfig cfg;
  cfg.extra_work_efficiency = 0.4;
  SedfScheduler s{cfg};
  s.add_vm(0, vm_cfg(20.0));
  const VmId ids[] = {0};
  (void)s.pick(SimTime{}, ids);
  EXPECT_DOUBLE_EQ(s.work_efficiency(0), 1.0);  // guaranteed slice
  s.charge(0, msec(20));
  (void)s.pick(msec(20), ids);
  EXPECT_DOUBLE_EQ(s.work_efficiency(0), 0.4);  // extra time
}

TEST(SedfSchedulerTest, RoundRobinExtraDistribution) {
  SedfScheduler s;
  s.add_vm(0, vm_cfg(10.0));
  s.add_vm(1, vm_cfg(10.0));
  s.charge(0, msec(10));
  s.charge(1, msec(10));
  const VmId ids[] = {0, 1};
  const VmId a = s.pick(msec(20), ids);
  s.charge(a, msec(1));
  const VmId b = s.pick(msec(21), ids);
  EXPECT_NE(a, b);
}

TEST(SedfSchedulerTest, SetCapAdjustsCurrentPeriod) {
  SedfScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  s.charge(0, msec(5));
  s.set_cap(0, 40.0);
  // remain was 15 ms; slice delta +20 ms -> 35 ms.
  EXPECT_EQ(s.remaining_slice(0), msec(35));
  EXPECT_DOUBLE_EQ(s.cap(0), 40.0);
}

TEST(SedfSchedulerTest, SetCapReductionFloorsAtZero) {
  SedfScheduler s;
  s.add_vm(0, vm_cfg(50.0));
  s.charge(0, msec(45));
  s.set_cap(0, 10.0);  // remain 5 - 40 -> clamped to 0
  EXPECT_EQ(s.remaining_slice(0), SimTime{});
}

TEST(SedfSchedulerTest, RejectsBadInput) {
  SedfScheduler s;
  EXPECT_THROW(s.add_vm(2, vm_cfg(10.0)), std::invalid_argument);
  SedfSchedulerConfig bad;
  bad.extra_work_efficiency = 0.0;
  EXPECT_THROW(SedfScheduler{bad}, std::invalid_argument);
  bad.extra_work_efficiency = 1.5;
  EXPECT_THROW(SedfScheduler{bad}, std::invalid_argument);
}

TEST(SedfSchedulerTest, GuaranteeUnderContention) {
  // Host-level: V20 guaranteed 20 % even with a 70 % hog and extra demand.
  hv::HostConfig hc;
  hc.trace_stride = SimTime{};
  hv::Host host{hc, std::make_unique<SedfScheduler>()};
  host.add_vm(vm_cfg(20.0), std::make_unique<wl::BusyLoop>());
  host.add_vm(vm_cfg(70.0), std::make_unique<wl::BusyLoop>());
  host.run_until(seconds(100));
  // Guaranteed minimums hold; the 10 % slack splits round-robin.
  EXPECT_GT(host.vm(0).total_busy.sec(), 20.0 - 1.0);
  EXPECT_GT(host.vm(1).total_busy.sec(), 70.0 - 1.0);
  EXPECT_NEAR(host.idle_time().sec(), 0.0, 0.5);
}

TEST(SedfSchedulerTest, WorkConservingGivesSlackToActiveVm) {
  // The paper's variable-credit pitch: V20 alone can exceed its 20 %.
  hv::HostConfig hc;
  hc.trace_stride = SimTime{};
  hv::Host host{hc, std::make_unique<SedfScheduler>()};
  host.add_vm(vm_cfg(20.0), std::make_unique<wl::BusyLoop>());
  host.add_vm(vm_cfg(70.0), std::make_unique<wl::IdleGuest>());
  host.run_until(seconds(100));
  EXPECT_GT(host.vm(0).total_busy.sec(), 95.0);
}

}  // namespace
}  // namespace pas::sched
