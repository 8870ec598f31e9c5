#include "control/control_plane.hpp"

#include <utility>

#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "sim/event_queue.hpp"

namespace pas::ctl {

ControlPlane::ControlPlane(std::vector<Task> tasks) : tasks_(std::move(tasks)) {}

void ControlPlane::arm(cluster::Cluster& cluster, sim::EventQueue& events) {
  cluster_ = &cluster;
  events_ = &events;
  for (const Task& task : tasks_) {
    events.schedule(task.at, [this, &task](common::SimTime now) { apply(task, now); });
  }
}

bool ControlPlane::submit(const Task& task) {
  if (events_ == nullptr) return false;
  // Late tasks fire at the next event boundary; the queue clamps past
  // times forward, which keeps the (time, seq) position well defined.
  submitted_.push_back(std::make_unique<Task>(task));
  const Task* stored = submitted_.back().get();
  events_->schedule(task.at, [this, stored](common::SimTime now) { apply(*stored, now); });
  return true;
}

std::size_t ControlPlane::count(TaskStatus status) const {
  std::size_t n = 0;
  for (const TaskResult& r : results_)
    if (r.status == status) ++n;
  return n;
}

void ControlPlane::apply(const Task& task, common::SimTime now) {
  using cluster::VmState;
  TaskResult result;
  result.id = task.id;
  result.at = now;
  result.kind = task.kind;
  result.status = TaskStatus::kOk;

  const auto reject = [&](std::string reason) {
    result.status = TaskStatus::kRejected;
    result.reason = std::move(reason);
  };
  const auto supersede = [&](std::string reason) {
    result.status = TaskStatus::kSuperseded;
    result.reason = std::move(reason);
  };
  const auto vm_tag = [&] { return "vm " + std::to_string(task.vm); };
  const auto host_tag = [&] { return "host " + std::to_string(task.host); };

  switch (task.kind) {
    case TaskKind::kMigrate: {
      const VmState state = cluster_->vm_state(task.vm);
      if (state == VmState::kLost) {
        supersede(vm_tag() + " lost");
      } else if (state == VmState::kOrphaned) {
        supersede(vm_tag() + " orphaned by a crash");
      } else if (state == VmState::kStopped) {
        reject(vm_tag() + " is stopped");
      } else if (state == VmState::kInbound) {
        reject(vm_tag() + " is still inbound from another cluster");
      } else if (state == VmState::kDeparted) {
        reject(vm_tag() + " departed to another cluster");
      } else if (cluster_->federation_locked(task.vm)) {
        reject(vm_tag() + " is in a cross-cluster flight");
      } else if (cluster_->crashed(task.host)) {
        supersede(host_tag() + " crashed");
      } else if (cluster_->residence(task.vm) == task.host) {
        reject(vm_tag() + " already resident on " + host_tag());
      } else if (cluster_->migrating(task.vm)) {
        reject(vm_tag() + " already in flight");
      } else {
        // External migrations obey the same policy as planner-issued ones:
        // browned-out periods issue nothing, and the per-tick budget is
        // shared — an operator cannot out-migrate the reshuffle bound.
        cluster::ClusterManager* mgr = cluster_->manager();
        using Admission = cluster::ClusterManager::ExternalAdmission;
        const Admission admission =
            mgr ? mgr->admit_external_migration(now) : Admission::kAdmitted;
        if (admission == Admission::kBrownout) {
          reject("planner brownout");
        } else if (admission == Admission::kNoBudget) {
          reject("migration budget exhausted");
        } else if (!cluster_->migrate(task.vm, task.host)) {
          reject("migration refused");  // unreachable given the checks above
        }
      }
      break;
    }
    case TaskKind::kStopVm: {
      const VmState state = cluster_->vm_state(task.vm);
      if (state == VmState::kLost) {
        supersede(vm_tag() + " lost");
      } else if (state == VmState::kOrphaned) {
        supersede(vm_tag() + " orphaned by a crash");
      } else if (state == VmState::kStopped) {
        reject(vm_tag() + " already stopped");
      } else if (cluster_->migrating(task.vm)) {
        reject(vm_tag() + " in flight");
      } else if (!cluster_->stop_vm(task.vm)) {
        // Reached for a VM a federation flight owns: fed-locked, inbound
        // or departed.
        reject("stop refused");
      }
      break;
    }
    case TaskKind::kStartVm: {
      const VmState state = cluster_->vm_state(task.vm);
      if (state == VmState::kLost) {
        supersede(vm_tag() + " lost");
      } else if (state == VmState::kOrphaned) {
        supersede(vm_tag() + " orphaned by a crash");
      } else if (state == VmState::kRunning) {
        reject(vm_tag() + " already running");
      } else if (cluster_->crashed(task.host)) {
        supersede(host_tag() + " crashed");
      } else if (!cluster_->start_vm(task.vm, task.host)) {
        // Reached for a VM a federation flight owns: inbound or departed.
        reject("start refused");
      }
      break;
    }
    case TaskKind::kCrashHost: {
      if (cluster_->crashed(task.host)) {
        supersede(host_tag() + " already crashed");
      } else if (!cluster_->crash_host(task.host, task.restart)) {
        // crash_host's two refusals: the last live host, or an endpoint
        // of a cross-cluster flight that has not resolved yet.
        const bool last_live = cluster_->host_count() - cluster_->crashed_count() <= 1;
        reject(host_tag() + (last_live ? " is the last live host"
                                       : " is a cross-cluster flight endpoint"));
      }
      break;
    }
    case TaskKind::kRestartVm: {
      const VmState state = cluster_->vm_state(task.vm);
      if (state == VmState::kLost) {
        supersede(vm_tag() + " lost");
      } else if (state != VmState::kOrphaned) {
        reject(vm_tag() + " not orphaned");
      } else if (cluster_->crashed(task.host)) {
        supersede(host_tag() + " crashed");
      } else if (!cluster_->start_vm(task.vm, task.host)) {
        reject("restart refused");  // unreachable given the checks above
      }
      break;
    }
    case TaskKind::kSetLinkBandwidth:
      cluster_->set_link_bandwidth(task.mb_per_s);
      break;
    case TaskKind::kAnnotate:
      result.note = task.note;
      break;
  }

  results_.push_back(std::move(result));
}

}  // namespace pas::ctl
