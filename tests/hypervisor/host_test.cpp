#include "hypervisor/host.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sched/credit_scheduler.hpp"
#include "workload/pi_app.hpp"
#include "workload/synthetic.hpp"

namespace pas::hv {
namespace {

using common::mf_seconds;
using common::seconds;

HostConfig quiet_config() {
  HostConfig hc;
  hc.trace_stride = seconds(1);
  return hc;
}

TEST(HostTest, RequiresScheduler) {
  EXPECT_THROW(Host(quiet_config(), nullptr), std::invalid_argument);
}

TEST(HostTest, SingleBusyVmUsesFullCpu) {
  Host host{quiet_config(), std::make_unique<sched::CreditScheduler>()};
  VmConfig cfg;
  cfg.name = "hog";
  cfg.credit = 100.0;
  const auto id = host.add_vm(cfg, std::make_unique<wl::BusyLoop>());
  host.run_until(seconds(10));
  // 100 % credit, always runnable, max frequency: ~10 s busy, ~10 mf-s work.
  EXPECT_NEAR(host.vm(id).total_busy.sec(), 10.0, 0.05);
  EXPECT_NEAR(host.vm(id).total_work.mf_seconds(), 10.0, 0.05);
  EXPECT_NEAR(host.idle_time().sec(), 0.0, 0.05);
}

TEST(HostTest, CreditCapEnforced) {
  Host host{quiet_config(), std::make_unique<sched::CreditScheduler>()};
  VmConfig cfg;
  cfg.name = "v20";
  cfg.credit = 20.0;
  const auto id = host.add_vm(cfg, std::make_unique<wl::BusyLoop>());
  host.run_until(seconds(100));
  EXPECT_NEAR(host.vm(id).total_busy.sec(), 20.0, 0.5);
  EXPECT_NEAR(host.idle_time().sec(), 80.0, 0.5);
}

TEST(HostTest, IdleGuestNeverRuns) {
  Host host{quiet_config(), std::make_unique<sched::CreditScheduler>()};
  VmConfig cfg;
  cfg.credit = 50.0;
  const auto id = host.add_vm(cfg, std::make_unique<wl::IdleGuest>());
  host.run_until(seconds(5));
  EXPECT_EQ(host.vm(id).total_busy, common::SimTime{});
  EXPECT_NEAR(host.idle_time().sec(), 5.0, 0.01);
}

TEST(HostTest, PiAppCompletesAtExpectedTime) {
  Host host{quiet_config(), std::make_unique<sched::CreditScheduler>()};
  VmConfig cfg;
  cfg.credit = 100.0;
  auto app = std::make_unique<wl::PiApp>(mf_seconds(5.0));
  const wl::PiApp* pi = app.get();
  host.add_vm(cfg, std::move(app));
  host.run_until(seconds(10));
  ASSERT_TRUE(pi->completion_time().has_value());
  EXPECT_NEAR(pi->completion_time()->sec(), 5.0, 0.05);
}

TEST(HostTest, LowerFrequencySlowsPiApp) {
  Host host{quiet_config(), std::make_unique<sched::CreditScheduler>()};
  VmConfig cfg;
  cfg.credit = 100.0;
  auto app = std::make_unique<wl::PiApp>(mf_seconds(5.0));
  const wl::PiApp* pi = app.get();
  host.add_vm(cfg, std::move(app));
  host.cpufreq().request(0);  // 1600/2667 = 0.6 speed
  host.run_until(seconds(20));
  ASSERT_TRUE(pi->completion_time().has_value());
  EXPECT_NEAR(pi->completion_time()->sec(), 5.0 / (1600.0 / 2667.0), 0.2);
}

TEST(HostTest, TraceSamplesRecorded) {
  HostConfig hc = quiet_config();
  hc.trace_stride = seconds(2);
  Host host{hc, std::make_unique<sched::CreditScheduler>()};
  VmConfig cfg;
  cfg.credit = 100.0;
  host.add_vm(cfg, std::make_unique<wl::BusyLoop>());
  host.run_until(seconds(10));
  EXPECT_EQ(host.trace().samples().size(), 5u);
  EXPECT_DOUBLE_EQ(host.trace().samples().front().freq_mhz, 2667.0);
  EXPECT_NEAR(host.trace().samples().back().vm_global_pct[0], 100.0, 1.0);
}

TEST(HostTest, AddVmBetweenSegmentsJoinsTheRun) {
  // Mid-run add_vm is a segment-boundary operation (a cluster creating a
  // migration slot lazily): the new VM joins scheduling, its trace history
  // pads with zeros, and earlier residents are unaffected.
  HostConfig hc = quiet_config();
  hc.trace_stride = seconds(1);
  Host host{hc, std::make_unique<sched::CreditScheduler>()};
  VmConfig cfg;
  cfg.credit = 40.0;
  const auto first = host.add_vm(cfg, std::make_unique<wl::BusyLoop>());
  host.run_until(seconds(2));
  const auto late = host.add_vm(cfg, std::make_unique<wl::BusyLoop>());
  host.run_until(seconds(4));

  EXPECT_GT(host.vm(late).total_work, common::Work{});
  EXPECT_GT(host.vm(first).total_work, host.vm(late).total_work);
  // Every trace row spans the final VM count; rows before the add are
  // zero-padded for the late slot.
  for (const auto& sample : host.trace().samples())
    ASSERT_EQ(sample.vm_global_pct.size(), 2u);
  EXPECT_DOUBLE_EQ(host.trace().samples().front().vm_global_pct[late], 0.0);
}

TEST(HostTest, SaturationDetection) {
  Host host{quiet_config(), std::make_unique<sched::CreditScheduler>()};
  VmConfig hog;
  hog.credit = 20.0;
  const auto hog_id = host.add_vm(hog, std::make_unique<wl::BusyLoop>());
  VmConfig lazy;
  lazy.credit = 70.0;
  const auto lazy_id = host.add_vm(lazy, std::make_unique<wl::IdleGuest>());
  host.run_until(seconds(5));
  EXPECT_TRUE(std::ranges::binary_search(host.saturated_slots(), hog_id));
  EXPECT_FALSE(std::ranges::binary_search(host.saturated_slots(), lazy_id));
}

TEST(HostTest, EnergyAccountedForWholeRun) {
  Host host{quiet_config(), std::make_unique<sched::CreditScheduler>()};
  VmConfig cfg;
  cfg.credit = 50.0;
  host.add_vm(cfg, std::make_unique<wl::BusyLoop>());
  host.run_until(seconds(10));
  EXPECT_NEAR(host.energy().elapsed().sec(), 10.0, 0.01);
  // Between pure idle and pure busy at max frequency.
  EXPECT_GT(host.energy().joules(), 45.0 * 10 * 0.99);
  EXPECT_LT(host.energy().joules(), 105.0 * 10 * 1.01);
}

TEST(HostTest, WorkloadAccessor) {
  Host host{quiet_config(), std::make_unique<sched::CreditScheduler>()};
  VmConfig cfg;
  cfg.credit = 100.0;
  const auto id = host.add_vm(cfg, std::make_unique<wl::BusyLoop>());
  host.run_until(seconds(2));
  auto& wlr = dynamic_cast<wl::BusyLoop&>(host.workload(id));
  EXPECT_GT(wlr.total_consumed().mf_seconds(), 1.0);
}

// The periodic tie rule: a timer that just fired re-arms with the newest
// sequence, so at a shared instant it fires after every timer that fired
// before it — whatever order the timers were created in. The governor is
// created first, yet at 6 s and 12 s the controller (last fired at 3 s /
// 9 s) beats the governor (last fired at 4 s / 10 s).
// Entries are (seconds, timer).
using TickLog = std::vector<std::pair<double, std::string>>;

class RecordingGovernor final : public gov::Governor {
 public:
  explicit RecordingGovernor(TickLog& log) : log_(log) {}
  std::string_view name() const override { return "recording"; }
  common::SimTime period() const override { return seconds(2); }
  std::size_t decide(const gov::Sample& s, const cpu::FrequencyLadder&) override {
    log_.emplace_back(s.now.sec(), "governor");
    return s.current_index;
  }

 private:
  TickLog& log_;
};

class RecordingController final : public Controller {
 public:
  explicit RecordingController(TickLog& log) : log_(log) {}
  std::string_view name() const override { return "recording"; }
  common::SimTime period() const override { return seconds(3); }
  void attach(const HostView&) override {}
  void on_tick(common::SimTime now, const HostView&) override {
    log_.emplace_back(now.sec(), "controller");
  }

 private:
  TickLog& log_;
};

TEST(HostTest, TimerThatFiredLastLosesTies) {
  for (const bool fast : {true, false}) {
    SCOPED_TRACE(fast ? "fast path" : "reference loop");
    HostConfig hc = quiet_config();
    hc.event_driven_fast_path = fast;
    Host host{hc, std::make_unique<sched::CreditScheduler>()};
    host.add_vm(VmConfig{}, std::make_unique<wl::IdleGuest>());
    TickLog log;
    host.set_governor(std::make_unique<RecordingGovernor>(log));
    host.set_controller(std::make_unique<RecordingController>(log));
    host.run_until(seconds(12));

    const TickLog expected = {
        {2, "governor"},   {3, "controller"},  {4, "governor"}, {6, "controller"},
        {6, "governor"},   {8, "governor"},    {9, "controller"}, {10, "governor"},
        {12, "controller"}, {12, "governor"}};
    EXPECT_EQ(log, expected);
  }
}

}  // namespace
}  // namespace pas::hv
