// Scheduler construction by kind: the one place a SchedulerKind becomes a
// scheduler.
#pragma once

#include <memory>

#include "hypervisor/scheduler.hpp"
#include "sched/credit2_scheduler.hpp"
#include "sched/credit_scheduler.hpp"
#include "sched/sedf_scheduler.hpp"

namespace pas::sched {

enum class SchedulerKind {
  kCredit,   // fixed credit (Xen Credit with caps)
  kSedf,     // variable credit (Xen SEDF with extra time)
  kCredit2,  // weighted proportional share with caps (Xen Credit2-style)
};

[[nodiscard]] std::unique_ptr<hv::Scheduler> make_scheduler(SchedulerKind kind);

}  // namespace pas::sched
