// Fast-path regression tests: the event-driven loop (time skipping +
// incremental runnable tracking) must reproduce the slow-stepped reference
// loop exactly, and the quantum loop's edge paths (spurious wakeups,
// all-over-cap idling) must behave identically in both modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.hpp"
#include "core/pas_controller.hpp"
#include "governor/governors.hpp"
#include "hypervisor/host.hpp"
#include "sched/credit2_scheduler.hpp"
#include "sched/credit_scheduler.hpp"
#include "sched/scheduler_factory.hpp"
#include "sched/sedf_scheduler.hpp"
#include "workload/load_profile.hpp"
#include "workload/pi_app.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_replay.hpp"
#include "workload/web_app.hpp"

namespace pas::hv {
namespace {

using common::mf_seconds;
using common::seconds;
using common::SimTime;

/// Claims to be runnable but never performs work — the spurious-wakeup
/// path (`done <= 0`, `busy == 0`). Uses the default "unknown" transition
/// hint, so it also exercises the poll-every-quantum fallback.
class SpuriousWorkload final : public wl::Workload {
 public:
  void advance_to(SimTime now) override { now_ = now; }
  [[nodiscard]] bool runnable() const override { return true; }
  common::Work consume(SimTime /*now*/, common::Work /*budget*/) override {
    ++consume_calls_;
    return common::Work{};
  }
  [[nodiscard]] std::uint64_t consume_calls() const { return consume_calls_; }

 private:
  SimTime now_{};
  std::uint64_t consume_calls_ = 0;
};

enum class Sched { kCredit, kSedf, kCredit2 };

std::unique_ptr<Scheduler> make_sched(Sched kind) {
  switch (kind) {
    case Sched::kCredit:
      return std::make_unique<sched::CreditScheduler>();
    case Sched::kSedf:
      return std::make_unique<sched::SedfScheduler>();
    case Sched::kCredit2:
      return std::make_unique<sched::Credit2Scheduler>();
  }
  return nullptr;
}

/// A small hosting mix that exercises every workload kind and both idle
/// tails (no-runnable stretches and over-cap stretches).
std::unique_ptr<Host> build_mixed_host(bool fast_path, Sched kind, bool controller,
                                       std::uint64_t web_seed = 42) {
  HostConfig hc;
  hc.trace_stride = seconds(1);
  hc.event_driven_fast_path = fast_path;
  auto host = std::make_unique<Host>(hc, make_sched(kind));
  host->set_governor(gov::make_governor("stable-ondemand"));
  if (controller) host->set_controller(std::make_unique<core::PasController>());

  {
    VmConfig cfg;
    cfg.name = "web";
    cfg.credit = 10.0;
    wl::WebAppConfig wc;
    wc.queue_capacity = 200;
    wc.seed = web_seed;
    const double rate = wl::WebApp::rate_for_demand(10.0, wc.request_cost);
    host->add_vm(cfg, std::make_unique<wl::WebApp>(
                          wl::LoadProfile::pulse(seconds(10), seconds(70), rate), wc));
  }
  {
    VmConfig cfg;
    cfg.name = "hog";
    cfg.credit = 15.0;
    host->add_vm(cfg, std::make_unique<wl::GatedBusyLoop>(
                          wl::LoadProfile::pulse(seconds(30), seconds(90), 1.0)));
  }
  {
    VmConfig cfg;
    cfg.name = "batch";
    cfg.credit = 20.0;
    host->add_vm(cfg, std::make_unique<wl::PiApp>(mf_seconds(3.0), seconds(40)));
  }
  {
    VmConfig cfg;
    cfg.name = "idle";
    cfg.credit = 10.0;
    host->add_vm(cfg, std::make_unique<wl::IdleGuest>());
  }
  return host;
}

void expect_identical_runs(Sched kind, bool controller) {
  auto slow = build_mixed_host(/*fast_path=*/false, kind, controller);
  auto fast = build_mixed_host(/*fast_path=*/true, kind, controller);
  slow->run_until(seconds(120));
  fast->run_until(seconds(120));

  EXPECT_EQ(first_divergence(*slow, *fast), std::nullopt);
}

TEST(HostFastPathTest, TraceIdenticalToSlowLoopCredit) {
  expect_identical_runs(Sched::kCredit, /*controller=*/false);
}

TEST(HostFastPathTest, TraceIdenticalToSlowLoopCreditWithPasController) {
  expect_identical_runs(Sched::kCredit, /*controller=*/true);
}

TEST(HostFastPathTest, TraceIdenticalToSlowLoopSedf) {
  expect_identical_runs(Sched::kSedf, /*controller=*/false);
}

TEST(HostFastPathTest, TraceIdenticalToSlowLoopCredit2) {
  expect_identical_runs(Sched::kCredit2, /*controller=*/false);
}

TEST(HostFastPathTest, FirstDivergenceNamesThePerturbedRow) {
  auto a = build_mixed_host(/*fast_path=*/true, Sched::kCredit, /*controller=*/false);
  auto b = build_mixed_host(/*fast_path=*/true, Sched::kCredit, /*controller=*/false,
                            /*web_seed=*/43);
  a->run_until(seconds(120));
  b->run_until(seconds(120));
  EXPECT_EQ(first_divergence(*a, *a), std::nullopt);
  // A reseeded web tenant first shows in the trace, no earlier than the
  // row its request pulse opens (10 s at a 1 s stride).
  const std::optional<std::string> d = first_divergence(*a, *b);
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->rfind("trace row ", 0), 0u) << *d;
  EXPECT_GE(std::stoul(d->substr(10)), 10u) << *d;
  // Slow vs fast differ only in the energy's low bits: the one tolerance.
  auto slow = build_mixed_host(/*fast_path=*/false, Sched::kCredit, /*controller=*/false);
  slow->run_until(seconds(120));
  ASSERT_NE(slow->energy().joules(), a->energy().joules());
  EXPECT_EQ(first_divergence(*slow, *a), std::nullopt);
}

TEST(HostFastPathTest, BulkIdleSkipMatchesSteppedRun) {
  // The cluster's sparse driver replaces run_until(target) with
  // skip_idle_to(target) whenever the quiescence certificate covers the
  // segment. The two must be byte-identical — trace rows, idle time,
  // energy down to the exact double — both across the skipped stretch and
  // after the host wakes back up.
  auto build = [] {
    HostConfig hc;
    hc.trace_stride = seconds(1);
    hc.event_driven_fast_path = true;
    auto host = std::make_unique<Host>(hc, std::make_unique<sched::CreditScheduler>());
    VmConfig cfg;
    cfg.name = "gated";
    cfg.credit = 20.0;
    host->add_vm(cfg, std::make_unique<wl::GatedBusyLoop>(wl::LoadProfile{{
                          {seconds(2), 1.0},
                          {seconds(5), 0.0},
                          {seconds(40), 1.0},
                          {seconds(45), 0.0},
                      }}));
    VmConfig idle;
    idle.name = "idle";
    idle.credit = 10.0;
    host->add_vm(idle, std::make_unique<wl::IdleGuest>());
    return host;
  };
  auto skipped = build();
  auto stepped = build();

  auto expect_equal = [&](const char* where) {
    ASSERT_EQ(skipped->now(), stepped->now()) << where;
    EXPECT_EQ(first_divergence(*skipped, *stepped), std::nullopt) << where;
    // Stricter than the comparator's energy tolerance: the bulk skip
    // replays the stepped run's exact energy chunks, so the bits match.
    EXPECT_EQ(skipped->energy().joules(), stepped->energy().joules()) << where;
  };

  // Phase 1: run both through the busy pulse into the idle stretch.
  skipped->run_until(seconds(10));
  stepped->run_until(seconds(10));
  expect_equal("after pulse");

  // Phase 2: the certificate must cover the idle stretch (next real
  // activity is the 40 s profile edge); bulk-skip one host, step the other.
  ASSERT_GE(skipped->next_activity_time(), seconds(30));
  skipped->skip_idle_to(seconds(30));
  stepped->run_until(seconds(30));
  expect_equal("after skip");

  // Phase 3: both continue through the wake-up pulse — the skip must have
  // left every piece of state (periodic phases, monitor windows, credit
  // refill) exactly where the stepped run put it.
  skipped->run_until(seconds(60));
  stepped->run_until(seconds(60));
  // The 40-45 s pulse ran (capped at 20 % credit, so ~1.6 s total busy
  // across both pulses — well above the ~0.6 s of the first alone).
  EXPECT_GT(skipped->vm(0).total_busy, seconds(1));
  expect_equal("after wake-up");
}

TEST(HostFastPathTest, BulkIdleSkipSweepMatchesSteppedRun) {
  // Seeded sweep over the shapes the batched skip folds: accounting
  // periods on and off the quantum grid, periods that tie with the monitor
  // window or the trace stride, no trace at all, a host that was busy for
  // a long time first (a large energy total, far up the binades), and one
  // idle span cut into random sub-skips. Energy must match bit for bit;
  // the wake-up phase afterwards proves the periodic (due, seq) order was
  // re-armed exactly as the stepped run left it.
  struct Shape {
    SimTime accounting;
    SimTime window;
    SimTime trace;
    SimTime busy;
  };
  const SimTime ms7 = common::msec(7);
  const SimTime ms30 = common::msec(30);
  const Shape shapes[] = {
      {ms30, seconds(1), seconds(10), seconds(2)},
      {ms7, seconds(1), seconds(1), seconds(2)},
      {ms7, common::msec(730), SimTime{}, seconds(600)},
      {ms30, seconds(1), SimTime{}, seconds(600)},
      {seconds(1), seconds(1), seconds(1), seconds(3)},    // ties every window
      {seconds(10), seconds(1), seconds(10), seconds(3)},  // longer than the window
      {common::msec(250), common::msec(500), seconds(1), seconds(5)},
  };
  common::Rng rng(1729);
  for (const Shape& shape : shapes) {
    const SimTime idle_from = shape.busy + seconds(60);
    const SimTime wake = idle_from + seconds(300);
    auto build = [&] {
      HostConfig hc;
      hc.trace_stride = shape.trace;
      hc.monitor_window = shape.window;
      hc.event_driven_fast_path = true;
      sched::CreditSchedulerConfig sc;
      sc.accounting_period = shape.accounting;
      auto host = std::make_unique<Host>(hc, std::make_unique<sched::CreditScheduler>(sc));
      VmConfig cfg;
      cfg.name = "gated";
      cfg.credit = 30.0;
      host->add_vm(cfg, std::make_unique<wl::GatedBusyLoop>(wl::LoadProfile{{
                            {SimTime{}, 1.0},
                            {shape.busy, 0.0},
                            {wake, 1.0},
                            {wake + seconds(5), 0.0},
                        }}));
      VmConfig idle;
      idle.name = "idle";
      idle.credit = 10.0;
      host->add_vm(idle, std::make_unique<wl::IdleGuest>());
      return host;
    };
    auto skipped = build();
    auto stepped = build();
    const std::string label = "accounting " + std::to_string(shape.accounting.us()) +
                              " us, window " + std::to_string(shape.window.us()) +
                              " us, trace " + std::to_string(shape.trace.us()) + " us";
    auto expect_equal = [&](const char* where) {
      ASSERT_EQ(skipped->now(), stepped->now()) << label << ", " << where;
      EXPECT_EQ(first_divergence(*skipped, *stepped), std::nullopt) << label << ", " << where;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(skipped->energy().joules()),
                std::bit_cast<std::uint64_t>(stepped->energy().joules()))
          << label << ", " << where;
      EXPECT_EQ(skipped->idle_time(), stepped->idle_time()) << label << ", " << where;
      EXPECT_EQ(skipped->trace().size(), stepped->trace().size()) << label << ", " << where;
    };

    skipped->run_until(idle_from);
    stepped->run_until(idle_from);
    expect_equal("after the busy phase");

    // The idle span, cut into random sub-skips on one host and run to the
    // same cuts on the other (a segment boundary is an energy chunk
    // boundary in both); the last cut lands exactly on a window instant.
    ASSERT_GE(skipped->next_activity_time(), wake) << label;
    const SimTime end = wake - shape.window * 10;
    SimTime t = idle_from;
    int skips = 0;
    while (t < end) {
      const auto step = static_cast<std::int64_t>(rng.uniform(1.0, 40'000'000.0));
      t = std::min(end, t + common::usec(step));
      skipped->skip_idle_to(t);
      stepped->run_until(t);
      ++skips;
    }
    EXPECT_GT(skips, 5) << label;
    expect_equal("after the sub-skips");

    // Wake-up: the pulse at `wake` runs on both hosts from the re-armed
    // periodic state.
    const SimTime busy_before = skipped->vm(0).total_busy;
    skipped->run_until(wake + seconds(20));
    stepped->run_until(wake + seconds(20));
    EXPECT_GT(skipped->vm(0).total_busy, busy_before + seconds(1)) << label;
    expect_equal("after the wake-up");
  }
}

TEST(HostFastPathTest, OffGridEventPeriodsStayIdentical) {
  // Periodic events whose period is not a multiple of the quantum cut the
  // reference loop's slices short and shift every later quantum boundary.
  // The no-runnable skip crosses such events, so its hint wake-up boundary
  // must be recomputed on the re-anchored grid — regression for a bug where
  // it kept the grid of the skip's start and woke one quantum off.
  auto build = [](bool fast) {
    HostConfig hc;
    hc.trace_stride = common::msec(15);    // off the 10 ms quantum grid
    hc.monitor_window = common::msec(730);  // also off-grid
    hc.event_driven_fast_path = fast;
    auto host = std::make_unique<Host>(hc, std::make_unique<sched::CreditScheduler>());
    VmConfig cfg;
    cfg.name = "web";
    cfg.credit = 5.0;
    wl::WebAppConfig wc;
    wc.seed = 7;
    const double rate = wl::WebApp::rate_for_demand(5.0, wc.request_cost);
    host->add_vm(cfg, std::make_unique<wl::WebApp>(
                          wl::LoadProfile::pulse(seconds(3), seconds(6), rate), wc));
    return host;
  };
  auto slow = build(false);
  auto fast = build(true);
  slow->run_until(seconds(20));
  fast->run_until(seconds(20));
  EXPECT_EQ(first_divergence(*slow, *fast), std::nullopt);
  const auto& web_slow = dynamic_cast<const wl::WebApp&>(slow->workload(0));
  const auto& web_fast = dynamic_cast<const wl::WebApp&>(fast->workload(0));
  EXPECT_EQ(web_slow.completed(), web_fast.completed());
  EXPECT_EQ(web_slow.latency_sec().mean(), web_fast.latency_sec().mean());
}

TEST(HostFastPathTest, SpuriousWakeupRetriesOthers) {
  // A workload that claims runnable but consumes nothing must not absorb
  // the quantum: the scheduler retries and the real hog gets the CPU.
  for (const bool fast : {false, true}) {
    HostConfig hc;
    hc.trace_stride = SimTime{};
    hc.event_driven_fast_path = fast;
    Host host{hc, std::make_unique<sched::CreditScheduler>()};
    VmConfig ghost;
    ghost.name = "ghost";
    ghost.credit = 50.0;
    auto spurious = std::make_unique<SpuriousWorkload>();
    const auto* sp = spurious.get();
    const auto ghost_id = host.add_vm(ghost, std::move(spurious));
    VmConfig hog;
    hog.name = "hog";
    hog.credit = 30.0;
    const auto hog_id = host.add_vm(hog, std::make_unique<wl::BusyLoop>());
    host.run_until(seconds(10));
    EXPECT_EQ(host.vm(ghost_id).total_busy, SimTime{}) << "fast=" << fast;
    EXPECT_GT(sp->consume_calls(), 100u) << "fast=" << fast;
    EXPECT_NEAR(host.vm(hog_id).total_busy.sec(), 3.0, 0.1) << "fast=" << fast;
    // Once a spurious wakeup blocks the VM for the slice it no longer
    // counts as "wanting" the CPU, so it must NOT read as saturated.
    EXPECT_FALSE(std::ranges::binary_search(host.saturated_slots(), ghost_id)) << "fast=" << fast;
  }
}

TEST(HostFastPathTest, SpuriousOnlyVmDoesNotHang) {
  HostConfig hc;
  hc.trace_stride = SimTime{};
  Host host{hc, std::make_unique<sched::CreditScheduler>()};
  VmConfig cfg;
  cfg.credit = 50.0;
  host.add_vm(cfg, std::make_unique<SpuriousWorkload>());
  host.run_until(seconds(5));
  EXPECT_EQ(host.now(), seconds(5));
  EXPECT_EQ(host.idle_time(), seconds(5));
}

TEST(HostFastPathTest, AllOverCapIdleAccruesWanting) {
  // A single capped hog: the CPU idles 80 % of the time while the VM keeps
  // wanting it — the saturation signal the monitor feeds the controllers.
  for (const bool fast : {false, true}) {
    HostConfig hc;
    hc.trace_stride = SimTime{};
    hc.event_driven_fast_path = fast;
    Host host{hc, std::make_unique<sched::CreditScheduler>()};
    VmConfig cfg;
    cfg.name = "v20";
    cfg.credit = 20.0;
    const auto id = host.add_vm(cfg, std::make_unique<wl::BusyLoop>());
    // Stop just shy of the window close so window_wanting is observable.
    host.run_until(common::msec(990));
    EXPECT_NEAR(host.window_wanting_fraction(id), 0.99, 0.011) << "fast=" << fast;
    host.run_until(seconds(10));
    EXPECT_TRUE(std::ranges::binary_search(host.saturated_slots(), id)) << "fast=" << fast;
    EXPECT_NEAR(host.vm(id).total_busy.sec(), 2.0, 0.1) << "fast=" << fast;
    EXPECT_NEAR(host.idle_time().sec(), 8.0, 0.1) << "fast=" << fast;
  }
}

TEST(HostFastPathTest, OverCapIdleIdenticalAcrossModes) {
  // Over-cap idling down to the microsecond: both modes agree on the
  // wanting accrual, busy time and idle time.
  Host slow{[] {
              HostConfig hc;
              hc.trace_stride = SimTime{};
              hc.event_driven_fast_path = false;
              return hc;
            }(),
            std::make_unique<sched::CreditScheduler>()};
  Host fast{[] {
              HostConfig hc;
              hc.trace_stride = SimTime{};
              hc.event_driven_fast_path = true;
              return hc;
            }(),
            std::make_unique<sched::CreditScheduler>()};
  for (Host* h : {&slow, &fast}) {
    VmConfig a;
    a.credit = 15.0;
    h->add_vm(a, std::make_unique<wl::BusyLoop>());
    VmConfig b;
    b.credit = 25.0;
    h->add_vm(b, std::make_unique<wl::GatedBusyLoop>(
                     wl::LoadProfile::pulse(seconds(2), seconds(7), 1.0)));
    h->run_until(common::msec(8765));
  }
  EXPECT_EQ(first_divergence(slow, fast), std::nullopt);
}

TEST(HostFastPathTest, LazyArrivalDeliveryMatchesSlowLoopAcrossHandOff) {
  // The fast path re-polls only the slots that ran or whose hint expired;
  // a runnable slot gets its arrivals just before it is consumed. One host
  // mixes the cases that stresses: a batch_night replay (long zero-demand
  // runs, then 55-60 % demand against a 50 % cap — a backlog), a web
  // tenant whose queued requests keep arriving while it waits its turn
  // (blocked slices), and a 20 % hog that leaves over-cap idle tails. At a
  // segment boundary the web tenant is handed off to another slot, as a
  // live migration does, and handed back later.
  const wl::Trace batch_night =
      wl::Trace::load(std::string{PAS_SOURCE_DIR} + "/examples/traces/batch_night.csv");
  auto build = [&](bool fast) {
    HostConfig hc;
    hc.trace_stride = seconds(1);
    hc.event_driven_fast_path = fast;
    auto host = std::make_unique<Host>(hc, std::make_unique<sched::CreditScheduler>());
    VmConfig replay;
    replay.name = "batch_night";
    replay.credit = 50.0;
    host->add_vm(replay, std::make_unique<wl::TraceReplay>(batch_night));
    VmConfig web;
    web.name = "web";
    web.credit = 12.0;
    wl::WebAppConfig wc;
    wc.seed = 11;
    const double rate = wl::WebApp::rate_for_demand(10.0, wc.request_cost);
    host->add_vm(web, std::make_unique<wl::WebApp>(wl::LoadProfile::constant(rate), wc));
    VmConfig hog;
    hog.name = "hog";
    hog.credit = 20.0;
    host->add_vm(hog, std::make_unique<wl::BusyLoop>());
    VmConfig spare;
    spare.name = "spare";
    spare.credit = 12.0;
    host->add_vm(spare, std::make_unique<wl::IdleGuest>());
    return host;
  };
  auto slow = build(false);
  auto fast = build(true);
  const auto hand_off = [](Host& h, common::VmId from, common::VmId to) {
    (void)h.swap_workload(to, h.swap_workload(from, std::make_unique<wl::IdleGuest>()));
  };
  const auto web_of = [](Host& h, common::VmId slot) -> const wl::WebApp& {
    return dynamic_cast<const wl::WebApp&>(h.workload(slot));
  };
  std::uint64_t completed_before_hand_off = 0;
  bool saw_backlog = false;
  common::VmId web_slot = 1;
  for (std::int64_t t = 25; t <= 1200; t += 25) {
    slow->run_until(seconds(t));
    fast->run_until(seconds(t));
    ASSERT_EQ(first_divergence(*slow, *fast), std::nullopt) << "at " << t << " s";
    const auto& replay = dynamic_cast<const wl::TraceReplay&>(fast->workload(0));
    saw_backlog |= replay.pending() > common::Work{};
    if (t == 500 || t == 900) {
      if (t == 500) completed_before_hand_off = web_of(*fast, web_slot).completed();
      const common::VmId to = web_slot == 1 ? 3 : 1;
      hand_off(*slow, web_slot, to);
      hand_off(*fast, web_slot, to);
      web_slot = to;
    }
  }
  const wl::WebApp& web_slow = web_of(*slow, web_slot);
  const wl::WebApp& web_fast = web_of(*fast, web_slot);
  EXPECT_EQ(web_slow.completed(), web_fast.completed());
  EXPECT_EQ(web_slow.latency_sec().mean(), web_fast.latency_sec().mean());
  EXPECT_EQ(dynamic_cast<const wl::TraceReplay&>(slow->workload(0)).total_consumed(),
            dynamic_cast<const wl::TraceReplay&>(fast->workload(0)).total_consumed());
  // Vacuity guards: the replay fell behind its demand, the web tenant kept
  // serving on the far side of the hand-off, and the hog was capped while
  // the CPU idled.
  EXPECT_TRUE(saw_backlog);
  EXPECT_GT(web_fast.completed(), completed_before_hand_off + 1000);
  EXPECT_GT(fast->vm(3).total_busy, seconds(10));
  EXPECT_NEAR(fast->vm(2).total_busy.sec(), 240.0, 5.0);
  EXPECT_GT(fast->idle_time(), seconds(100));
}

/// An overbooked Credit host of trace replays (caps sum to 183 %): the
/// shape the rotation run serves. Trace points fall off the monitor grid,
/// and so do most trace rows (a row's timer would end a run by itself).
/// "exact" drains each backlog with a full quantum (its work is a whole
/// number of budgets), last in 200 ms pulses from 30 s on; "partial"
/// drains mid-slice; "overcap" serves a 0.4 s backlog through a 3 % cap
/// (about 13 s, over cap almost every turn); "boost" sits in a higher
/// priority tier and wakes in pulses. With "overcap" drained the other
/// caps never run out, so the runs grow long — across a window close,
/// were the run to ignore it.
std::unique_ptr<Host> build_saturated_host(bool fast_path,
                                           SimTime accounting = common::msec(30)) {
  HostConfig hc;
  hc.trace_stride = common::msec(2'500);  // most window closes take no row
  hc.event_driven_fast_path = fast_path;
  sched::CreditSchedulerConfig sc;
  sc.accounting_period = accounting;
  auto host = std::make_unique<Host>(hc, std::make_unique<sched::CreditScheduler>(sc));
  const auto add = [&](const char* name, common::Percent credit, int priority,
                       std::vector<wl::TracePoint> points) {
    VmConfig cfg;
    cfg.name = name;
    cfg.credit = credit;
    cfg.priority = priority;
    host->add_vm(cfg, std::make_unique<wl::TraceReplay>(wl::Trace{std::move(points), name}));
  };
  const auto at = [](std::int64_t ms) { return common::msec(ms); };
  add("steady-a", 30.0, 0,
      {{at(0), 60.0}, {at(350), 45.0}, {at(7'350), 70.0}, {at(20'000), 0.0}});
  add("steady-b", 30.0, 0,
      {{at(0), 55.0}, {at(2'600), 80.0}, {at(11'100), 40.0}, {at(25'000), 0.0}});
  add("steady-c", 25.0, 0, {{at(0), 50.0}, {at(30'000), 0.0}});
  std::vector<wl::TracePoint> exact = {
      {at(0), 50.0}, {at(2'000), 0.0}, {at(12'130), 50.0}, {at(13'130), 0.0}};
  for (std::int64_t ms = 30'070; ms < 41'000; ms += 1'300) {
    exact.push_back({at(ms), 50.0});
    exact.push_back({at(ms + 200), 0.0});
  }
  add("exact", 40.0, 0, std::move(exact));
  add("partial", 35.0, 0, {{at(0), 33.3}, {at(4'000), 0.0}});
  add("overcap", 3.0, 0, {{at(0), 40.0}, {at(1'000), 0.0}});
  add("boost", 20.0, 1,
      {{at(0), 0.0}, {at(5'230), 15.0}, {at(6'230), 0.0}, {at(15'470), 15.0}, {at(16'970), 0.0}});
  return host;
}

/// Runs the saturated host in both modes: one run_until across 30 monitor
/// closes, trace rows, every accounting fire and trace point, then short
/// segments whose ends fall all over the window (each compares the open
/// window's wanting). `after_long_run` sees both hosts right after the
/// long run.
void expect_saturated_runs_match(
    SimTime accounting, const std::function<void(const Host&, const Host&)>& after_long_run) {
  auto slow = build_saturated_host(/*fast_path=*/false, accounting);
  auto fast = build_saturated_host(/*fast_path=*/true, accounting);
  slow->run_until(common::msec(30'500));
  fast->run_until(common::msec(30'500));
  ASSERT_EQ(first_divergence(*slow, *fast), std::nullopt);
  after_long_run(*slow, *fast);
  for (std::int64_t ms = 30'670; ms <= 45'000; ms += 170) {
    slow->run_until(common::msec(ms));
    fast->run_until(common::msec(ms));
    ASSERT_EQ(first_divergence(*slow, *fast), std::nullopt) << "at " << ms << " ms";
  }
  // The reference loop steps quantum by quantum; the fast path rotated.
  EXPECT_EQ(slow->rotation_quanta(), 0u);
  EXPECT_GT(fast->rotation_quanta(), 1000u);
  // Vacuity guards: the drains happened, the over-cap VM served its
  // backlog, the boost tier ran, and the host was saturated.
  const auto replay = [&](common::VmId v) -> const wl::TraceReplay& {
    return dynamic_cast<const wl::TraceReplay&>(fast->workload(v));
  };
  EXPECT_TRUE(replay(3).fully_served());
  EXPECT_TRUE(replay(4).fully_served());
  EXPECT_TRUE(replay(5).fully_served());
  EXPECT_NEAR(fast->vm(5).total_busy.sec(), 0.4, 1e-3);
  EXPECT_GT(fast->vm(6).total_busy, common::msec(300));
  EXPECT_GT(fast->vm(0).total_busy + fast->vm(1).total_busy + fast->vm(2).total_busy,
            seconds(30));
}

TEST(HostFastPathTest, SaturatedRotationRunsMatchSteppedRun) {
  // The fast path hands most quanta out as rotation runs; each run must
  // stop where the reference loop would see something a rotation cannot:
  // a window close, a trace point, an over-cap VM in turn, a drain, the
  // boost tier.
  expect_saturated_runs_match(common::msec(30), [](const Host& /*slow*/, const Host& fast) {
    // Bit pins taken from the fast path before rotation runs existed: the
    // batched busy chunks sum to the per-quantum records' exact bits, and
    // each VM's work total is its per-turn sum.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.energy().joules()), 0x40a7b16666666715ull);
    const std::uint64_t work_bits[] = {
        0x41601a8f00000000ull, 0x415fedd400000000ull, 0x415b466c00000000ull,
        0x41386a0000000000ull, 0x4134531fffffffffull, 0x41186a0000000000ull,
        0x4116e36000000000ull};
    ASSERT_EQ(fast.vm_count(), std::size(work_bits));
    for (common::VmId v = 0; v < fast.vm_count(); ++v)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.vm(v).total_work.mfus()), work_bits[v])
          << "vm " << v;
  });
}

TEST(HostFastPathTest, SaturatedRotationRunsStopAtOffGridAccounting) {
  // A 25 ms accounting period cuts every other 10 ms slice short: a run
  // fires the refills on the grid and stops before a slice that one cuts.
  expect_saturated_runs_match(common::msec(25), [](const Host&, const Host&) {});
}

/// Sets every cap to 1.6x, then 0.7x, its initial credit, alternating tick
/// by tick: each tick moves every refill rate and burst limit, so whether
/// it runs before or after an accounting fire due at the same instant
/// changes the balances.
class AlternatingCapController final : public Controller {
 public:
  explicit AlternatingCapController(SimTime period) : period_(period) {}
  [[nodiscard]] std::string_view name() const override { return "alternating-cap"; }
  [[nodiscard]] SimTime period() const override { return period_; }
  void attach(const HostView& /*view*/) override {}
  void on_tick(SimTime /*now*/, const HostView& view) override {
    const double scale = (ticks_++ % 2 == 0) ? 1.6 : 0.7;
    for (const common::VmId id : view.vms)
      view.scheduler->set_cap(id, view.initial_credits[id] * scale);
  }

 private:
  SimTime period_;
  std::uint64_t ticks_ = 0;
};

TEST(HostFastPathTest, RotationAccountingTiesWithControllerInReferenceOrder) {
  // A controller period off the 30 ms accounting grid meets the accounting
  // timer at common multiples; there the one fired less recently goes
  // first. A rotation run fires accounting in place, so it must draw the
  // newest seq as fire_timers would, or the next tie flips its order.
  for (const std::int64_t period_ms : {40, 50, 70, 90}) {
    const auto build = [&](bool fast_path) {
      HostConfig hc;
      hc.trace_stride = SimTime{};
      hc.event_driven_fast_path = fast_path;
      auto host = std::make_unique<Host>(hc, std::make_unique<sched::CreditScheduler>());
      host->set_controller(std::make_unique<AlternatingCapController>(common::msec(period_ms)));
      for (const common::Percent credit : {30.0, 25.0, 20.0, 15.0}) {
        VmConfig cfg;
        cfg.credit = credit;
        host->add_vm(cfg, std::make_unique<wl::TraceReplay>(
                              wl::Trace{{{SimTime{}, 60.0}, {seconds(60), 0.0}}, "saturated"}));
      }
      return host;
    };
    auto slow = build(false);
    auto fast = build(true);
    for (std::int64_t s = 1; s <= 12; ++s) {
      slow->run_until(seconds(s));
      fast->run_until(seconds(s));
      ASSERT_EQ(first_divergence(*slow, *fast), std::nullopt)
          << "controller period " << period_ms << " ms, at " << s << " s";
    }
    EXPECT_GT(fast->rotation_quanta(), 100u) << "controller period " << period_ms << " ms";
  }
}

TEST(HostFastPathTest, SegmentEndsCatchUpLazilySkippedArrivals) {
  // Between run_until calls a runnable workload must stand where delivery
  // at every quantum leaves it, even when it was not picked in the last
  // quantum. A null-credit hog soaks up every slack slice, so the CPU
  // never idles and both modes run the same quanta; the web tenant is
  // saturated, so it stays runnable and the fast path withholds its
  // arrivals until it is consumed or the segment ends.
  auto build = [](bool fast) {
    HostConfig hc;
    hc.trace_stride = SimTime{};
    hc.event_driven_fast_path = fast;
    auto host = std::make_unique<Host>(hc, std::make_unique<sched::CreditScheduler>());
    VmConfig web;
    web.credit = 20.0;
    wl::WebAppConfig wc;
    wc.seed = 5;
    const double rate = wl::WebApp::rate_for_demand(30.0, wc.request_cost);
    host->add_vm(web, std::make_unique<wl::WebApp>(wl::LoadProfile::constant(rate), wc));
    VmConfig hog;
    hog.credit = 0.0;
    host->add_vm(hog, std::make_unique<wl::BusyLoop>());
    return host;
  };
  auto slow = build(false);
  auto fast = build(true);
  for (std::int64_t ms = 1'234; ms <= 30'000; ms += 1'234) {
    slow->run_until(common::msec(ms));
    fast->run_until(common::msec(ms));
    const auto& web_slow = dynamic_cast<const wl::WebApp&>(slow->workload(0));
    const auto& web_fast = dynamic_cast<const wl::WebApp&>(fast->workload(0));
    ASSERT_EQ(web_slow.arrived(), web_fast.arrived()) << "at " << ms << " ms";
    ASSERT_EQ(web_slow.queue_depth(), web_fast.queue_depth()) << "at " << ms << " ms";
  }
  EXPECT_EQ(first_divergence(*slow, *fast), std::nullopt);
  EXPECT_EQ(fast->idle_time(), SimTime{});  // vacuity guard: no skips
  EXPECT_TRUE(fast->workload(0).runnable());  // saturated throughout
}

}  // namespace
}  // namespace pas::hv
