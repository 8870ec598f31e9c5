// ControlPlane: compiles an accepted task stream into ordinary cluster
// events and publishes per-task results.
//
// Determinism is inherited, not re-invented — the PR 6 fault-injection
// trick: Cluster::run_until calls arm() exactly once when the run starts,
// scheduling every task onto the SAME (time, insertion-seq) ordered event
// queue that manager ticks, SLA samples and migration phases ride. A
// command therefore lands at a fixed queue position in every engine, so
// fast-path, reference and parallel runs replay the stream identically and
// the result log — which only depends on cluster state at those fixed
// instants — serializes byte-identically too.
//
// Execution semantics at fire time, per kind (reasons are published in the
// result log; see task.hpp for TaskStatus):
//   migrate            — superseded if the VM is orphaned/lost or the
//                        destination crashed; rejected if the VM is stopped,
//                        owned by a federation flight (inbound, departed or
//                        fed-locked), already resident, already in flight,
//                        the manager is browned out, or the period's
//                        migration budget is exhausted (external commands
//                        draw from the SAME per-tick budget as planner-
//                        issued migrations — ClusterManager::
//                        admit_external_migration; only a VM that could
//                        actually move draws from it).
//   stop_vm / start_vm — administrative lifecycle: stop holds the workload
//                        off-host (no SLA accrual — the customer asked),
//                        start resumes it on a live host.
//   crash_host         — drill traffic; superseded if already crashed,
//                        rejected on the last live host or on an endpoint
//                        of an unresolved cross-cluster flight.
//   restart_vm         — an external recovery decision for an orphaned VM
//                        (Cluster::start_vm on the orphan); superseded if
//                        the VM was lost, rejected if it is not orphaned
//                        (e.g. the manager's own recovery won the race).
//   set_link_bandwidth — applied unconditionally (validated at parse).
//   annotate           — no-op; the note passes through to the result log.
//
// A crash that fires at the same instant as a command sorts FIRST: the
// fault injector arms before the control plane (Cluster::run_until), so its
// events hold earlier insertion-seqs at equal times. A command racing a
// chaos crash therefore observes the post-crash world — deterministically,
// in every engine — and resolves to kSuperseded (the fuzz equivalence test
// pins this).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "control/task.hpp"

namespace pas::sim {
class EventQueue;
}  // namespace pas::sim

namespace pas::cluster {
class Cluster;
}  // namespace pas::cluster

namespace pas::ctl {

class ControlPlane {
 public:
  /// The accepted stream (parse_tasks output, or scripted in tests).
  explicit ControlPlane(std::vector<Task> tasks);

  /// Schedules every task onto `events` against `cluster`. Called by
  /// Cluster::run_until exactly once, when the run starts; the plane must
  /// outlive the run (the cluster owns it).
  void arm(cluster::Cluster& cluster, sim::EventQueue& events);

  /// Injects one task after the run has started (tools/pas_ctl's REPL
  /// path). Fires at task.at, or immediately at the next event boundary if
  /// that is already in the past. Returns false before arm().
  bool submit(const Task& task);

  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }
  /// Fired-task outcomes in fire order (time, then insertion-seq).
  [[nodiscard]] const std::vector<TaskResult>& results() const { return results_; }
  /// The deterministic result log (serialize_results over results()).
  [[nodiscard]] std::string result_log() const { return serialize_results(results_); }

  [[nodiscard]] std::size_t accepted() const { return count(TaskStatus::kOk); }
  [[nodiscard]] std::size_t rejected() const { return count(TaskStatus::kRejected); }
  [[nodiscard]] std::size_t superseded() const { return count(TaskStatus::kSuperseded); }

 private:
  void apply(const Task& task, common::SimTime now);
  [[nodiscard]] std::size_t count(TaskStatus status) const;

  std::vector<Task> tasks_;
  /// REPL-submitted tasks; heap-pinned so the scheduled lambdas' pointers
  /// survive growth (tasks_ itself is frozen once arm() runs).
  std::vector<std::unique_ptr<Task>> submitted_;
  std::vector<TaskResult> results_;
  cluster::Cluster* cluster_ = nullptr;  // set at arm
  sim::EventQueue* events_ = nullptr;    // set at arm (for submit)
};

}  // namespace pas::ctl
