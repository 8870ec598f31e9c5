// Trace-replay workloads: recorded demand series fed back through the
// Workload interface — real (or previously simulated) hosting-center load
// curves as first-class scenarios next to the synthetic mixes.
//
// A trace is a step function over simulated time: point i says "between
// t_i and t_{i+1} the guest demanded demand_pct percent of the
// max-frequency processor" (the same unit metrics::LoadMonitor records as
// absolute load, so a recorded run re-emits directly as a trace — see
// metrics/trace_export.hpp). TraceReplay delivers each interval's work as
// a batch when the interval opens and exposes an HONEST
// next_transition_time — the next trace point that delivers work — so the
// host's event-driven fast path skips straight between trace points and
// stays byte-identical to the slow-stepped loop.
//
// File format (CSV via common::CsvTable; CRLF/quoted-field tolerant,
// errors carry file:line):
//
//     t_sec,demand_pct[,memory_mb]
//     0,12.5
//     10,40.25,512
//     ...
//     3600,0
//
// Timestamps strictly increase; demands are non-negative; the final
// point's demand must be 0 — it closes the last interval, after which the
// workload idles forever (next_transition_time = kNoTransition).
// Serialization resolution is 1e-6 (microsecond timestamps, micro-percent
// demands): save() and load() round-trip exactly for traces on that grid,
// which everything the exporter emits is.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "workload/workload.hpp"

namespace pas::wl {

struct TracePoint {
  common::SimTime t;
  /// Demand over [t, next point's t), in percent of the max-frequency
  /// processor (the unit of metrics::LoadMonitor's absolute load).
  double demand_pct = 0.0;
  /// Optional guest memory footprint at this instant (0 = not recorded).
  double memory_mb = 0.0;

  bool operator==(const TracePoint&) const = default;
};

/// A validated, immutable demand series. Construction (from memory or a
/// file) enforces the format invariants so every consumer — TraceReplay,
/// the scenario builder, the bench — can trust the shape.
class Trace {
 public:
  /// Validates and adopts `points`: non-empty, strictly increasing
  /// non-negative timestamps, non-negative finite demands and memory, and
  /// a final demand of 0. Throws std::invalid_argument naming the
  /// offending index otherwise. `name` labels the trace in errors and
  /// scenario listings (a file stem, "synthetic", ...).
  explicit Trace(std::vector<TracePoint> points, std::string name = "trace");

  /// Parses CSV text (header `t_sec,demand_pct[,memory_mb]`). Errors are
  /// prefixed `origin:line:`.
  [[nodiscard]] static Trace parse(std::string_view text,
                                   const std::string& origin = "<memory>");

  /// Loads one trace file; the trace is named by the file's stem.
  [[nodiscard]] static Trace load(const std::string& path);

  /// Loads every `*.csv` in `dir`, sorted by filename (deterministic trace
  /// ids for per-VM assignment). Throws if the directory has none.
  [[nodiscard]] static std::vector<Trace> load_dir(const std::string& dir);

  /// Renders the trace back to CSV (the format parse() reads; %.6f cells,
  /// memory column included only when the trace carries one).
  [[nodiscard]] std::string to_csv() const;
  void save(const std::string& path) const;

  [[nodiscard]] const std::vector<TracePoint>& points() const { return points_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool has_memory() const { return has_memory_; }
  /// Demand step value at `t` (0 before the first point and from the last
  /// point on — the final demand is validated to be 0).
  [[nodiscard]] double demand_pct_at(common::SimTime t) const;
  /// Work demanded by interval i ([t_i, t_{i+1})); 0 for the last point.
  [[nodiscard]] common::Work interval_work(std::size_t i) const;
  /// Sum of every interval's work.
  [[nodiscard]] common::Work total_work() const { return total_work_; }
  [[nodiscard]] double peak_demand_pct() const { return peak_demand_; }
  [[nodiscard]] double peak_memory_mb() const { return peak_memory_; }
  /// Timestamp of the final (demand-0) point: the replay is idle from here.
  [[nodiscard]] common::SimTime end_time() const { return points_.back().t; }

  bool operator==(const Trace&) const = default;

 private:
  std::vector<TracePoint> points_;
  std::string name_;
  bool has_memory_ = false;
  common::Work total_work_{};
  double peak_demand_ = 0.0;
  double peak_memory_ = 0.0;
};

/// Replays a Trace through the Workload interface. Interval i's work
/// arrives as a batch when advance_to crosses t_i (a pure function of the
/// crossed point set, so coarsened advance_to patterns deliver
/// identically); the guest then wants the CPU until the batch is drained.
/// Demand the scheduler never serves accumulates — a replay against an
/// undersized host stays honest about the backlog.
class TraceReplay final : public Workload {
 public:
  explicit TraceReplay(Trace trace);

  void advance_to(common::SimTime now) override;
  [[nodiscard]] bool runnable() const override { return pending_ > common::Work{}; }
  common::Work consume(common::SimTime now, common::Work budget) override;
  /// The backlog covers the budget; pending work only grows by delivery.
  [[nodiscard]] bool fills(common::Work budget) const override { return pending_ >= budget; }
  /// Every work-delivering point crossed and the backlog drained. Trailing
  /// zero-demand points don't matter: the host may never advance an idle
  /// workload again (that is the fast path's whole point).
  [[nodiscard]] bool finished() const override {
    return next_idx_ >= work_end_idx_ && !runnable();
  }
  /// The next trace point that delivers work (skipping zero-demand
  /// intervals), or kNoTransition once the trace is exhausted — the hint
  /// that lets the fast path jump across idle gaps between trace points.
  [[nodiscard]] common::SimTime next_transition_time(common::SimTime now) override;

  [[nodiscard]] const Trace& trace() const { return trace_; }
  [[nodiscard]] common::Work pending() const { return pending_; }
  /// Work delivered by crossed trace points so far (demand side).
  [[nodiscard]] common::Work demand_delivered() const { return delivered_; }
  /// Work actually served by the scheduler so far (supply side).
  [[nodiscard]] common::Work total_consumed() const { return consumed_; }

 private:
  Trace trace_;
  std::size_t next_idx_ = 0;   // first point not yet delivered
  std::size_t work_end_idx_;   // 1 + index of the last work-delivering point
  std::size_t hint_idx_ = 0;   // next_transition_time's search cursor
  common::Work pending_{};
  common::Work delivered_{};
  common::Work consumed_{};
};

/// Rounds a demand percentage to the serialization grid (1e-6): the
/// exporter quantizes so that measure → save → load → replay → measure →
/// save reproduces the file byte for byte (replay dust is orders of
/// magnitude below the grid).
[[nodiscard]] double quantize_demand_pct(double pct);

}  // namespace pas::wl
