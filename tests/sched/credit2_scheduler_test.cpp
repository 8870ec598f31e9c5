#include "sched/credit2_scheduler.hpp"

#include <gtest/gtest.h>

#include "hypervisor/host.hpp"
#include "workload/synthetic.hpp"

namespace pas::sched {
namespace {

using common::msec;
using common::seconds;
using common::SimTime;
using common::VmId;

hv::VmConfig vm_cfg(double credit) {
  hv::VmConfig c;
  c.credit = credit;
  return c;
}

TEST(Credit2SchedulerTest, PicksSmallestVruntime) {
  Credit2Scheduler s;
  s.add_vm(0, vm_cfg(50.0));
  s.add_vm(1, vm_cfg(50.0));
  const VmId ids[] = {0, 1};
  const VmId first = s.pick(SimTime{}, ids);
  s.charge(first, msec(5));
  const VmId second = s.pick(SimTime{}, ids);
  EXPECT_NE(first, second);
}

TEST(Credit2SchedulerTest, VruntimeAdvancesInverselyToWeight) {
  Credit2Scheduler s;
  s.add_vm(0, vm_cfg(20.0));
  s.add_vm(1, vm_cfg(80.0));
  s.charge(0, msec(10));
  s.charge(1, msec(10));
  // Equal busy time costs the light VM 4x the virtual time.
  EXPECT_NEAR(s.vruntime(0) / s.vruntime(1), 4.0, 1e-9);
}

TEST(Credit2SchedulerTest, CapBlocksWhenExhausted) {
  Credit2Scheduler s;
  s.add_vm(0, vm_cfg(20.0));
  const VmId ids[] = {0};
  EXPECT_EQ(s.pick(SimTime{}, ids), 0u);
  s.charge(0, msec(10));  // initial budget is 6 ms
  EXPECT_EQ(s.pick(SimTime{}, ids), common::kInvalidVm);
  s.account(msec(30));
  EXPECT_EQ(s.pick(SimTime{}, ids), 0u);
}

TEST(Credit2SchedulerTest, NoCapsMeansWorkConserving) {
  Credit2SchedulerConfig cfg;
  cfg.enforce_caps = false;
  Credit2Scheduler s{cfg};
  s.add_vm(0, vm_cfg(20.0));
  const VmId ids[] = {0};
  s.charge(0, msec(100));
  EXPECT_EQ(s.pick(SimTime{}, ids), 0u);
}

TEST(Credit2SchedulerTest, ZeroCreditVmGetsTokenWeight) {
  Credit2Scheduler s;
  s.add_vm(0, vm_cfg(0.0));
  EXPECT_DOUBLE_EQ(s.weight(0), 1.0);
  const VmId ids[] = {0};
  // Uncapped: may always run.
  s.charge(0, msec(100));
  EXPECT_EQ(s.pick(SimTime{}, ids), 0u);
}

TEST(Credit2SchedulerTest, WakeupClampPreventsHoarding) {
  Credit2Scheduler s;
  s.add_vm(0, vm_cfg(50.0));
  s.add_vm(1, vm_cfg(50.0));
  // VM 0 runs alone for a long time; VM 1 wakes with vruntime 0 but must
  // not monopolize the CPU to "catch up".
  const VmId only0[] = {0};
  for (int i = 0; i < 100; ++i) {
    (void)s.pick(SimTime{}, only0);
    s.charge(0, msec(10));
    if (i % 3 == 0) s.account(msec(30 * i));
  }
  const VmId both[] = {0, 1};
  (void)s.pick(SimTime{}, both);  // clamps VM 1
  // After the clamp, VM 1 is at most one burst allowance behind.
  EXPECT_GE(s.vruntime(1), s.vruntime(0) - msec(30).us() / 50.0 - 1e-9);
}

TEST(Credit2SchedulerTest, ProportionalShareUnderContention) {
  // Host-level, no caps: 1:4 weights yield a 1:4 time split.
  Credit2SchedulerConfig cfg;
  cfg.enforce_caps = false;
  hv::HostConfig hc;
  hc.trace_stride = SimTime{};
  hv::Host host{hc, std::make_unique<Credit2Scheduler>(cfg)};
  host.add_vm(vm_cfg(20.0), std::make_unique<wl::BusyLoop>());
  host.add_vm(vm_cfg(80.0), std::make_unique<wl::BusyLoop>());
  host.run_until(seconds(60));
  EXPECT_NEAR(host.vm(0).total_busy.sec() / host.vm(1).total_busy.sec(), 0.25, 0.02);
  EXPECT_LT(host.idle_time().sec(), 0.5);  // work conserving
}

TEST(Credit2SchedulerTest, CapsEnforcedAtHostLevel) {
  hv::HostConfig hc;
  hc.trace_stride = SimTime{};
  hv::Host host{hc, std::make_unique<Credit2Scheduler>()};
  host.add_vm(vm_cfg(20.0), std::make_unique<wl::BusyLoop>());
  host.add_vm(vm_cfg(70.0), std::make_unique<wl::IdleGuest>());
  host.run_until(seconds(60));
  EXPECT_NEAR(host.vm(0).total_busy.sec(), 12.0, 0.5);  // capped at 20 %
}

TEST(Credit2SchedulerTest, ComposesWithPasStyleSetCap) {
  Credit2Scheduler s;
  s.add_vm(0, vm_cfg(20.0));
  s.set_cap(0, 33.3);
  EXPECT_DOUBLE_EQ(s.cap(0), 33.3);
  s.charge(0, msec(6));
  s.account(msec(30));
  // Refill at the compensated rate: ~10 ms per 30 ms.
  const VmId ids[] = {0};
  EXPECT_EQ(s.pick(SimTime{}, ids), 0u);
}

TEST(Credit2SchedulerTest, RejectsBadInput) {
  Credit2Scheduler s;
  EXPECT_THROW(s.add_vm(2, vm_cfg(10.0)), std::invalid_argument);
  s.add_vm(0, vm_cfg(10.0));
  EXPECT_THROW(s.set_cap(0, -1.0), std::invalid_argument);
  Credit2SchedulerConfig bad;
  bad.accounting_period = SimTime{};
  EXPECT_THROW(Credit2Scheduler{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace pas::sched
