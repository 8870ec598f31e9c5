// The exporter half of the record→replay pipeline: recorded rows become a
// replayable step-function demand trace, and a recorded host run exported,
// replayed and re-exported reproduces the trace byte for byte (the
// single-host version of the round-trip property; the cluster-scale one
// lives in tests/cluster/cluster_trace_test.cpp).
#include "metrics/trace_export.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hypervisor/host.hpp"
#include "sched/credit_scheduler.hpp"
#include "workload/load_profile.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_replay.hpp"
#include "workload/web_app.hpp"

namespace pas::metrics {
namespace {

using common::seconds;
using common::SimTime;

// Recorder with two VM columns sampled at a fixed stride.
TraceRecorder make_recorder(const std::vector<SimTime>& times,
                            const std::vector<std::vector<double>>& vm_absolute) {
  TraceRecorder rec{vm_absolute.empty() ? 0 : vm_absolute[0].size()};
  for (std::size_t r = 0; r < times.size(); ++r) {
    std::vector<double> zeros(rec.vm_count(), 0.0);
    rec.append(times[r], 2000.0, 0.0, 0.0, zeros, vm_absolute[r], zeros, zeros);
  }
  return rec;
}

TEST(TraceExportTest, RowsBecomeStepsOneStrideBack) {
  const auto rec = make_recorder({seconds(10), seconds(20), seconds(30)},
                                 {{12.5, 0.0}, {40.0, 1.0}, {0.0, 2.0}});
  const wl::Trace t = vm_demand_trace(rec, 0, "vm0");
  ASSERT_EQ(t.points().size(), 4u);
  EXPECT_EQ(t.points()[0].t, seconds(0));
  EXPECT_DOUBLE_EQ(t.points()[0].demand_pct, 12.5);
  EXPECT_EQ(t.points()[1].t, seconds(10));
  EXPECT_DOUBLE_EQ(t.points()[1].demand_pct, 40.0);
  EXPECT_EQ(t.points()[3].t, seconds(30));
  EXPECT_DOUBLE_EQ(t.points()[3].demand_pct, 0.0);

  const wl::Trace u = vm_demand_trace(rec, 1, "vm1");
  EXPECT_DOUBLE_EQ(u.points()[1].demand_pct, 1.0);
  // Column 1 ends with demand 2.0 in its last window; the appended final
  // point still closes the trace at zero.
  EXPECT_DOUBLE_EQ(u.points()[2].demand_pct, 2.0);
  EXPECT_DOUBLE_EQ(u.points()[3].demand_pct, 0.0);
}

TEST(TraceExportTest, RejectsEmptyUnalignedAndUnevenRows) {
  const TraceRecorder empty{1};
  EXPECT_THROW((void)vm_demand_trace(empty, 0), std::invalid_argument);

  const auto rec = make_recorder({seconds(10)}, {{1.0}});
  EXPECT_THROW((void)vm_demand_trace(rec, 5), std::invalid_argument);

  // First row earlier than one stride: windows would start before t = 0.
  const auto skew = make_recorder({seconds(5), seconds(15), seconds(25)},
                                  {{1.0}, {1.0}, {0.0}});
  EXPECT_THROW((void)vm_demand_trace(skew, 0), std::invalid_argument);

  const auto uneven = make_recorder({seconds(10), seconds(20), seconds(35)},
                                    {{1.0}, {1.0}, {0.0}});
  EXPECT_THROW((void)vm_demand_trace(uneven, 0), std::invalid_argument);
}

TEST(TraceExportTest, QuantizesToTheSerializationGrid) {
  const double noisy = 33.0 + 1e-9;  // below the 1e-6 grid
  const auto rec = make_recorder({seconds(10), seconds(20)}, {{noisy}, {0.0}});
  const wl::Trace t = vm_demand_trace(rec, 0);
  EXPECT_DOUBLE_EQ(t.points()[0].demand_pct, 33.0);
}

// --- the round trip, single host ------------------------------------------
//
// Record a synthetic run (web app + gated hog on one host), export each
// VM's demand trace, replay each trace alone on a fresh host with capacity
// headroom, re-export — the CSV must come back byte-identical: demand in
// equals demand out, exactly.

hv::HostConfig recording_config() {
  hv::HostConfig hc;
  hc.monitor_window = seconds(1);
  hc.trace_stride = seconds(1);  // exporter precondition: stride == window
  return hc;
}

TEST(TraceExportTest, RecordReplayReExportIsByteIdentical) {
  const SimTime horizon = seconds(120);

  auto recorded = std::make_unique<hv::Host>(recording_config(),
                                             std::make_unique<sched::CreditScheduler>());
  {
    hv::VmConfig web;
    web.name = "web";
    web.credit = 30.0;
    wl::WebAppConfig wc;
    wc.seed = 42;
    recorded->add_vm(web, std::make_unique<wl::WebApp>(
                              wl::LoadProfile::pulse(
                                  seconds(10), seconds(70),
                                  wl::WebApp::rate_for_demand(20.0, wc.request_cost)),
                              wc));
    hv::VmConfig hog;
    hog.name = "hog";
    hog.credit = 25.0;
    recorded->add_vm(hog, std::make_unique<wl::GatedBusyLoop>(
                              wl::LoadProfile::pulse(seconds(30), seconds(90), 1.0)));
  }
  recorded->run_until(horizon);
  ASSERT_GT(recorded->trace().size(), 100u);

  for (common::VmId vm = 0; vm < recorded->trace().vm_count(); ++vm) {
    const wl::Trace exported = vm_demand_trace(recorded->trace(), vm, "rt");

    auto replay = std::make_unique<hv::Host>(recording_config(),
                                             std::make_unique<sched::CreditScheduler>());
    hv::VmConfig vc;
    vc.name = "replay";
    vc.credit = 95.0;  // headroom: every window's demand must be served
    replay->add_vm(vc, std::make_unique<wl::TraceReplay>(exported));
    replay->run_until(horizon);

    const auto& w = dynamic_cast<const wl::TraceReplay&>(replay->workload(0));
    EXPECT_TRUE(w.finished()) << "vm " << vm;

    const wl::Trace re_exported = vm_demand_trace(replay->trace(), 0, "rt");
    EXPECT_EQ(re_exported.to_csv(), exported.to_csv()) << "vm " << vm;
  }
}

}  // namespace
}  // namespace pas::metrics
