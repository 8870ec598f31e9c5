// Re-emits a recorded run as replayable demand traces — the other half of
// the record→replay pipeline (workload/trace_replay.hpp reads what this
// writes).
//
// A TraceRecorder row at time t holds each VM's absolute load over the
// monitor window that closed at t (trace samples fire after the window
// close at the same instant — Host::install_periodic_tasks fixes that
// order), so with trace_stride == monitor_window the recorded series IS a
// step-function demand series on stride boundaries: sample r covers
// (t_r - stride, t_r]. The exporter validates that shape (equally spaced
// rows, first row one stride in) and quantizes demands to the trace
// serialization grid (1e-6), which makes the loop closable exactly: a
// synthetic run exported here, replayed through wl::TraceReplay on a host
// with capacity headroom, re-recorded and re-exported reproduces the trace
// file byte for byte (tests/cluster/cluster_trace_test.cpp pins this).
#pragma once

#include <string>

#include "common/ids.hpp"
#include "metrics/trace_recorder.hpp"
#include "workload/trace_replay.hpp"

namespace pas::metrics {

/// Builds the demand trace of one VM column from a recorded run. Throws
/// std::invalid_argument if the recorder is empty or its rows are not
/// equally spaced with the first at one stride (trace_stride must equal
/// the monitor window for the samples to tile time).
[[nodiscard]] wl::Trace vm_demand_trace(const TraceRecorder& recorder, common::VmId vm,
                                        std::string name = "vm");

}  // namespace pas::metrics
