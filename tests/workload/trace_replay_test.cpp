#include "workload/trace_replay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hypervisor/host.hpp"
#include "sched/credit_scheduler.hpp"

namespace pas::wl {
namespace {

using common::mf_usec;
using common::seconds;
using common::SimTime;
using common::usec;
using common::Work;

std::vector<TracePoint> ramp_points() {
  return {{seconds(0), 20.0, 0.0},
          {seconds(10), 50.0, 0.0},
          {seconds(20), 0.0, 0.0},
          {seconds(30), 10.0, 0.0},
          {seconds(40), 0.0, 0.0}};
}

// --- Trace validation -----------------------------------------------------

TEST(TraceTest, ValidatesShape) {
  EXPECT_NO_THROW(Trace{ramp_points()});
  EXPECT_THROW(Trace{std::vector<TracePoint>{}}, std::invalid_argument);
  EXPECT_THROW(Trace({{seconds(0), 5.0, 0.0}}), std::invalid_argument);  // final != 0
  EXPECT_NO_THROW(Trace({{seconds(0), 0.0, 0.0}}));  // single idle point is fine
  EXPECT_THROW(Trace({{seconds(10), 5.0, 0.0}, {seconds(10), 0.0, 0.0}}),
               std::invalid_argument);  // non-increasing
  EXPECT_THROW(Trace({{seconds(10), 5.0, 0.0}, {seconds(5), 0.0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(Trace({{usec(-1), 0.0, 0.0}}), std::invalid_argument);  // negative t
  EXPECT_THROW(Trace({{seconds(0), -1.0, 0.0}, {seconds(1), 0.0, 0.0}}),
               std::invalid_argument);  // negative demand
  EXPECT_THROW(Trace({{seconds(0), 1.0, -4.0}, {seconds(1), 0.0, 0.0}}),
               std::invalid_argument);  // negative memory
}

/// demand_pct_at by its definition: the demand of the last point at or
/// before `t`, 0 before the first point.
double demand_by_scan(const Trace& trace, SimTime t) {
  double v = 0.0;
  for (const TracePoint& p : trace.points())
    if (p.t <= t) v = p.demand_pct;
  return v;
}

TEST(TraceTest, StepLookupAtPointsBeforeTheFirstAndAfterTheLast) {
  // A trace whose first point lies after t = 0.
  const Trace t{{{seconds(5), 30.0, 0.0},
                 {seconds(8), 0.0, 0.0},
                 {seconds(12), 70.0, 0.0},
                 {seconds(20), 0.0, 0.0}}};
  EXPECT_DOUBLE_EQ(t.demand_pct_at(SimTime{}), 0.0);
  EXPECT_DOUBLE_EQ(t.demand_pct_at(seconds(5) - usec(1)), 0.0);
  EXPECT_DOUBLE_EQ(t.demand_pct_at(seconds(5)), 30.0);  // exact point instants
  EXPECT_DOUBLE_EQ(t.demand_pct_at(seconds(8)), 0.0);
  EXPECT_DOUBLE_EQ(t.demand_pct_at(seconds(12)), 70.0);
  EXPECT_DOUBLE_EQ(t.demand_pct_at(seconds(12) - usec(1)), 0.0);
  EXPECT_DOUBLE_EQ(t.demand_pct_at(seconds(20) - usec(1)), 70.0);
  EXPECT_DOUBLE_EQ(t.demand_pct_at(seconds(20)), 0.0);  // the closing point
  EXPECT_DOUBLE_EQ(t.demand_pct_at(seconds(1'000'000)), 0.0);
  for (const SimTime at : {SimTime{}, seconds(5), seconds(7), seconds(8), seconds(11),
                           seconds(12), seconds(19), seconds(20), seconds(21)})
    EXPECT_EQ(t.demand_pct_at(at), demand_by_scan(t, at)) << at.us();
  const Trace single{{{seconds(3), 0.0, 0.0}}};
  EXPECT_DOUBLE_EQ(single.demand_pct_at(SimTime{}), 0.0);
  EXPECT_DOUBLE_EQ(single.demand_pct_at(seconds(3)), 0.0);
}

TEST(TraceTest, StepLookupAndIntervalWork) {
  const Trace t{ramp_points()};
  EXPECT_DOUBLE_EQ(t.demand_pct_at(seconds(0)), 20.0);
  EXPECT_DOUBLE_EQ(t.demand_pct_at(seconds(9)), 20.0);
  EXPECT_DOUBLE_EQ(t.demand_pct_at(seconds(10)), 50.0);
  EXPECT_DOUBLE_EQ(t.demand_pct_at(seconds(25)), 0.0);
  EXPECT_DOUBLE_EQ(t.demand_pct_at(seconds(99)), 0.0);
  // 20 % of 10 s = 2 max-frequency seconds.
  EXPECT_DOUBLE_EQ(t.interval_work(0).mf_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(t.interval_work(1).mf_seconds(), 5.0);
  EXPECT_DOUBLE_EQ(t.interval_work(2).mf_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(t.interval_work(4).mf_seconds(), 0.0);  // last point
  EXPECT_DOUBLE_EQ(t.total_work().mf_seconds(), 8.0);
  EXPECT_DOUBLE_EQ(t.peak_demand_pct(), 50.0);
  EXPECT_EQ(t.end_time(), seconds(40));
}

// --- Parsing --------------------------------------------------------------

TEST(TraceTest, ParsesCsvWithOptionalMemoryColumn) {
  const Trace t = Trace::parse("t_sec,demand_pct,memory_mb\n0,25,512\n60,0,512\n");
  ASSERT_EQ(t.points().size(), 2u);
  EXPECT_TRUE(t.has_memory());
  EXPECT_DOUBLE_EQ(t.peak_memory_mb(), 512.0);
  EXPECT_EQ(t.points()[1].t, seconds(60));

  const Trace bare = Trace::parse("t_sec,demand_pct\n0,25\n60,0\n");
  EXPECT_FALSE(bare.has_memory());
}

TEST(TraceTest, ParseToleratesCrlfQuotesAndMissingTrailingNewline) {
  const Trace t = Trace::parse("t_sec,demand_pct\r\n\"0\",\"12.5\"\r\n10,0");
  ASSERT_EQ(t.points().size(), 2u);
  EXPECT_DOUBLE_EQ(t.points()[0].demand_pct, 12.5);
}

TEST(TraceTest, ParseErrorsCarryOriginAndLine) {
  try {
    (void)Trace::parse("t_sec,demand_pct\n0,5\n0,0\n", "bad.csv");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("bad.csv:3"), std::string::npos) << e.what();
  }
  try {
    (void)Trace::parse("t_sec,demand_pct\n1,nope\n", "bad2.csv");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("bad2.csv:2"), std::string::npos) << e.what();
  }
  // Missing columns, no data rows, ragged rows: all rejected loudly.
  EXPECT_THROW((void)Trace::parse("time,load\n0,1\n"), std::runtime_error);
  EXPECT_THROW((void)Trace::parse("t_sec,demand_pct\n"), std::runtime_error);
  EXPECT_THROW((void)Trace::parse("t_sec,demand_pct\n0\n"), std::runtime_error);
  // Final demand != 0 is a format error too.
  EXPECT_THROW((void)Trace::parse("t_sec,demand_pct\n0,5\n"), std::runtime_error);
}

TEST(TraceTest, SaveLoadRoundTripsExactly) {
  // Points on the serialization grid (integer microseconds, micro-percent
  // demands) survive save -> load bit for bit — the property the
  // record -> replay loop closure rests on.
  const Trace t{{{usec(0), 12.125, 0.0},
                 {usec(1'500'000), quantize_demand_pct(33.3333337), 0.0},
                 {usec(2'000'001), 0.0, 0.0}},
                "roundtrip"};
  const std::string path = ::testing::TempDir() + "/pas_trace_roundtrip.csv";
  t.save(path);
  const Trace back = Trace::load(path);
  ASSERT_EQ(back.points().size(), t.points().size());
  for (std::size_t i = 0; i < t.points().size(); ++i) {
    EXPECT_EQ(back.points()[i].t, t.points()[i].t) << i;
    EXPECT_EQ(back.points()[i].demand_pct, t.points()[i].demand_pct) << i;
  }
  EXPECT_EQ(back.to_csv(), t.to_csv());
  std::remove(path.c_str());
}

TEST(TraceTest, LoadDirSortsByFilenameAndRejectsEmpty) {
  const std::string dir = ::testing::TempDir() + "/pas_trace_dir";
  std::filesystem::create_directory(dir);
  Trace({{seconds(0), 5.0, 0.0}, {seconds(10), 0.0, 0.0}}, "b").save(dir + "/b.csv");
  Trace({{seconds(0), 7.0, 0.0}, {seconds(10), 0.0, 0.0}}, "a").save(dir + "/a.csv");
  const auto traces = Trace::load_dir(dir);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].name(), "a");
  EXPECT_EQ(traces[1].name(), "b");
  EXPECT_DOUBLE_EQ(traces[0].points()[0].demand_pct, 7.0);
  std::filesystem::remove_all(dir);
  EXPECT_THROW((void)Trace::load_dir(dir), std::runtime_error);
}

// --- TraceReplay semantics ------------------------------------------------

TEST(TraceReplayTest, DeliversIntervalBatchesAndDrains) {
  TraceReplay w{Trace{ramp_points()}};
  EXPECT_FALSE(w.runnable());
  w.advance_to(seconds(0));
  EXPECT_TRUE(w.runnable());
  EXPECT_DOUBLE_EQ(w.pending().mf_seconds(), 2.0);

  // Serve half, then the rest: consume is bounded by pending.
  EXPECT_DOUBLE_EQ(w.consume(seconds(1), common::mf_seconds(1.0)).mf_seconds(), 1.0);
  EXPECT_TRUE(w.runnable());
  EXPECT_DOUBLE_EQ(w.consume(seconds(2), common::mf_seconds(9.0)).mf_seconds(), 1.0);
  EXPECT_FALSE(w.runnable());
  EXPECT_DOUBLE_EQ(w.consume(seconds(3), common::mf_seconds(1.0)).mfus(), 0.0);

  // Crossing several points at once delivers every batch (coarsening).
  w.advance_to(seconds(35));
  EXPECT_DOUBLE_EQ(w.pending().mf_seconds(), 5.0 + 1.0);
  EXPECT_FALSE(w.finished());
  w.advance_to(seconds(40));
  EXPECT_DOUBLE_EQ(w.consume(seconds(40), common::mf_seconds(10.0)).mf_seconds(), 6.0);
  EXPECT_TRUE(w.finished());
  EXPECT_TRUE(w.finished());
  EXPECT_DOUBLE_EQ(w.total_consumed().mf_seconds(), 8.0);
  EXPECT_DOUBLE_EQ(w.demand_delivered().mf_seconds(), 8.0);
}

TEST(TraceReplayTest, TransitionHintSkipsZeroDemandGaps) {
  TraceReplay w{Trace{ramp_points()}};
  EXPECT_EQ(w.next_transition_time(usec(0)), seconds(0));
  w.advance_to(seconds(0));
  // Next work-delivering point is t=10 (50 %).
  EXPECT_EQ(w.next_transition_time(seconds(0)), seconds(10));
  w.advance_to(seconds(10));
  // The t=20 point opens a zero-demand gap: the next delivery is t=30.
  EXPECT_EQ(w.next_transition_time(seconds(10)), seconds(30));
  w.advance_to(seconds(30));
  EXPECT_EQ(w.next_transition_time(seconds(30)), kNoTransition);
}

/// next_transition_time by its definition: the first point not yet
/// crossed by advance_to(now) (t > now) whose interval delivers work.
SimTime hint_by_scan(const Trace& trace, SimTime now) {
  const auto& points = trace.points();
  for (std::size_t i = 0; i + 1 < points.size(); ++i)
    if (points[i].t > now && trace.interval_work(i) > Work{}) return points[i].t;
  return kNoTransition;
}

/// Steps a replay through `trace` and checks the hint against the scan
/// after every advance_to: at each point's instant, just before it, and on
/// an off-grid stride, asking twice per step (the hint may be re-polled
/// without an advance in between). Returns how many steps had a
/// work-delivering point ahead (the callers' vacuity guard).
std::size_t expect_hint_matches_scan(const Trace& trace) {
  std::vector<SimTime> steps;
  for (const TracePoint& p : trace.points()) {
    if (p.t > SimTime{}) steps.push_back(p.t - usec(1));
    steps.push_back(p.t);
  }
  for (SimTime t{}; t <= trace.end_time() + seconds(20); t += common::msec(7'300))
    steps.push_back(t);
  std::sort(steps.begin(), steps.end());

  TraceReplay w{trace};
  EXPECT_EQ(w.next_transition_time(SimTime{}), hint_by_scan(trace, usec(-1)))
      << trace.name() << " before the first advance";
  std::size_t delivering_hints = 0;
  for (const SimTime now : steps) {
    w.advance_to(now);
    const SimTime want = hint_by_scan(trace, now);
    EXPECT_EQ(w.next_transition_time(now), want) << trace.name() << " at " << now.us();
    EXPECT_EQ(w.next_transition_time(now), want) << trace.name() << " repeat at " << now.us();
    if (want != kNoTransition) ++delivering_hints;
  }
  return delivering_hints;
}

TEST(TraceReplayTest, TransitionHintMatchesLinearScanOnBundledTraces) {
  const auto traces = Trace::load_dir(std::string{PAS_SOURCE_DIR} + "/examples/traces");
  ASSERT_EQ(traces.size(), 3u);
  bool saw_zero_run = false;
  for (const Trace& trace : traces) {
    // batch_night opens with a long run of zero-demand points: the hint
    // must jump the whole run in one answer.
    for (std::size_t i = 0; i + 2 < trace.points().size(); ++i)
      saw_zero_run |= trace.interval_work(i) == Work{} && trace.interval_work(i + 1) == Work{};
    EXPECT_GT(expect_hint_matches_scan(trace), 0u) << trace.name();
  }
  EXPECT_TRUE(saw_zero_run);
}

TEST(TraceReplayTest, TransitionHintMatchesLinearScanWithAllZeroTail) {
  // Work early, then a long tail of zero-demand points: once the last
  // delivering point is crossed the hint is kNoTransition, although
  // points remain.
  std::vector<TracePoint> points{{seconds(0), 0.0, 0.0},
                                 {seconds(10), 40.0, 0.0},
                                 {seconds(20), 0.0, 0.0},
                                 {seconds(30), 15.0, 0.0}};
  for (int i = 4; i < 40; ++i) points.push_back({seconds(10 * i), 0.0, 0.0});
  const Trace trace{points, "zero_tail"};
  EXPECT_GT(expect_hint_matches_scan(trace), 0u);
  TraceReplay w{trace};
  w.advance_to(seconds(30));
  EXPECT_EQ(w.next_transition_time(seconds(30)), kNoTransition);
  // A trace that never delivers work: kNoTransition from the start.
  const Trace idle{{{seconds(0), 0.0, 0.0}, {seconds(5), 0.0, 0.0}}, "idle"};
  EXPECT_EQ(expect_hint_matches_scan(idle), 0u);
}

TEST(TraceReplayTest, UnservedDemandAccumulatesAsBacklog) {
  TraceReplay w{Trace{ramp_points()}};
  w.advance_to(seconds(40));  // nothing ever served
  EXPECT_TRUE(w.runnable());
  EXPECT_FALSE(w.finished());
  EXPECT_FALSE(w.finished());
  EXPECT_DOUBLE_EQ(w.pending().mf_seconds(), 8.0);
}

// --- On a host: fast path byte-identity (contract 1) ----------------------

hv::HostConfig replay_host_config(bool fast) {
  hv::HostConfig hc;
  hc.monitor_window = seconds(1);
  hc.trace_stride = seconds(1);
  hc.event_driven_fast_path = fast;
  return hc;
}

std::unique_ptr<hv::Host> build_replay_host(bool fast, const Trace& trace) {
  auto host = std::make_unique<hv::Host>(replay_host_config(fast),
                                         std::make_unique<sched::CreditScheduler>());
  hv::VmConfig vc;
  vc.name = "replay";
  vc.credit = 95.0;
  host->add_vm(vc, std::make_unique<TraceReplay>(trace));
  return host;
}

TEST(TraceReplayTest, HostRunsIdenticalFastAndSlow) {
  const Trace trace{ramp_points()};
  auto slow = build_replay_host(false, trace);
  auto fast = build_replay_host(true, trace);
  slow->run_until(seconds(41));
  fast->run_until(seconds(41));

  ASSERT_EQ(hv::first_divergence(*slow, *fast), std::nullopt);
  // The fast path actually skipped the idle tail (vacuity guard: the trace
  // leaves the host idle more than half the run).
  EXPECT_GT(slow->idle_time().sec(), 20.0);
  // With 95 % credit against a peak demand of 50 %, the backlog drains.
  const auto& replay = dynamic_cast<const TraceReplay&>(fast->workload(0));
  EXPECT_TRUE(replay.finished());
  EXPECT_EQ(replay.total_consumed(), replay.demand_delivered());
}

}  // namespace
}  // namespace pas::wl
