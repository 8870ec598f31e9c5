#include "sched/credit_scheduler.hpp"

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

hv::VmConfig vm_cfg(double credit, int priority = 0) {
  hv::VmConfig c;
  c.credit = credit;
  c.priority = priority;
  return c;
}

TEST(CreditSchedulerTest, InitialBalanceIsOneRefill) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  EXPECT_EQ(s.balance(0), msec(6));  // 20 % of 30 ms
  EXPECT_DOUBLE_EQ(s.cap(0), 20.0);
}

TEST(CreditSchedulerTest, PicksUnderVm) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  const VmId ids[] = {0};
  EXPECT_EQ(s.pick(SimTime{}, ids), 0u);
}

TEST(CreditSchedulerTest, ExhaustedVmNotPicked) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  s.charge(0, msec(6));
  const VmId ids[] = {0};
  EXPECT_EQ(s.pick(SimTime{}, ids), kInvalidVm);  // fixed credit: CPU idles
}

TEST(CreditSchedulerTest, AccountRefills) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  s.charge(0, msec(6));
  s.account(msec(30));
  EXPECT_EQ(s.balance(0), msec(6));
  const VmId ids[] = {0};
  EXPECT_EQ(s.pick(SimTime{}, ids), 0u);
}

TEST(CreditSchedulerTest, BalanceClampedToBurstLimit) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  for (int i = 0; i < 10; ++i) s.account(msec(30 * i));
  EXPECT_EQ(s.balance(0), msec(9));  // kBurstPeriods = 1.5
}

TEST(CreditSchedulerTest, FractionalLeftoverSurvivesRefill) {
  // A 70 % VM leaves ~1 ms unburned per period when quanta are 10 ms; the
  // clamp must not confiscate it or the VM converges below its cap.
  CreditScheduler s;
  s.add_vm(0, vm_cfg(70.0));
  s.charge(0, msec(20));  // burned 20 of 21
  s.account(msec(30));
  EXPECT_EQ(s.balance(0), msec(22));  // 1 leftover + 21 refill, under 31.5 burst
}

TEST(CreditSchedulerTest, OverdraftCarriesOver) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  s.charge(0, msec(10));  // overdraw by 4 ms
  s.account(msec(30));
  EXPECT_EQ(s.balance(0), msec(2));
}

TEST(CreditSchedulerTest, PriorityPreempts) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0, 0));
  s.add_vm(1, vm_cfg(10.0, 1));  // Dom0-style
  const VmId ids[] = {0, 1};
  EXPECT_EQ(s.pick(SimTime{}, ids), 1u);
  s.charge(1, msec(3));  // exhaust Dom0
  EXPECT_EQ(s.pick(SimTime{}, ids), 0u);
}

TEST(CreditSchedulerTest, RoundRobinAmongEqualPriority) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(50.0));
  s.add_vm(1, vm_cfg(50.0));
  const VmId ids[] = {0, 1};
  const VmId first = s.pick(SimTime{}, ids);
  s.charge(first, msec(1));
  const VmId second = s.pick(SimTime{}, ids);
  EXPECT_NE(first, second);
  s.charge(second, msec(1));
  EXPECT_EQ(s.pick(SimTime{}, ids), first);
}

TEST(CreditSchedulerTest, NullCreditRunsOnlyWhenOthersExhausted) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  s.add_vm(1, vm_cfg(0.0));  // null credit
  const VmId ids[] = {0, 1};
  EXPECT_EQ(s.pick(SimTime{}, ids), 0u);
  s.charge(0, msec(6));
  EXPECT_EQ(s.pick(SimTime{}, ids), 1u);  // soaks slack
  s.charge(1, msec(100));                 // no limit
  EXPECT_EQ(s.pick(SimTime{}, ids), 1u);
}

TEST(CreditSchedulerTest, SetCapChangesRefill) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  s.set_cap(0, 40.0);
  EXPECT_DOUBLE_EQ(s.cap(0), 40.0);
  s.charge(0, msec(6));
  s.account(msec(30));
  EXPECT_EQ(s.balance(0), msec(12));
}

TEST(CreditSchedulerTest, CapReductionClampsHoard) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(40.0));
  EXPECT_EQ(s.balance(0), msec(12));
  s.set_cap(0, 10.0);
  EXPECT_EQ(s.balance(0), common::usec(4500));  // 1.5 periods at 10 %
}

TEST(CreditSchedulerTest, PasStyleCompensatedCapAboveHundred) {
  // §4.2: at low frequency the sum of caps may exceed 100 %.
  CreditScheduler s;
  s.add_vm(0, vm_cfg(70.0));
  s.charge(0, msec(21));  // burn the initial refill
  s.set_cap(0, 116.7);
  s.account(msec(30));
  // One refill at the compensated cap: 116.7 % of 30 ms.
  EXPECT_NEAR(static_cast<double>(s.balance(0).us()), 35'010.0, 30.0);
}

TEST(CreditSchedulerTest, RejectsBadInput) {
  CreditScheduler s;
  EXPECT_THROW(s.add_vm(3, vm_cfg(10.0)), std::invalid_argument);
  s.add_vm(0, vm_cfg(10.0));
  EXPECT_THROW(s.set_cap(0, -1.0), std::invalid_argument);
  EXPECT_THROW(s.add_vm(1, vm_cfg(-5.0)), std::invalid_argument);
  CreditSchedulerConfig bad;
  bad.accounting_period = SimTime{};
  EXPECT_THROW(CreditScheduler{bad}, std::invalid_argument);
}

TEST(CreditSchedulerTest, LongRunShareMatchesCap) {
  // End-to-end via the host: two thrashing VMs split 20/70 proportionally.
  hv::HostConfig hc;
  hc.trace_stride = SimTime{};
  hv::Host host{hc, std::make_unique<CreditScheduler>()};
  host.add_vm(vm_cfg(20.0), std::make_unique<wl::BusyLoop>());
  host.add_vm(vm_cfg(70.0), std::make_unique<wl::BusyLoop>());
  host.run_until(seconds(100));
  EXPECT_NEAR(host.vm(0).total_busy.sec(), 20.0, 1.0);
  EXPECT_NEAR(host.vm(1).total_busy.sec(), 70.0, 1.0);
  EXPECT_NEAR(host.idle_time().sec(), 10.0, 1.0);
}

}  // namespace
}  // namespace pas::sched
