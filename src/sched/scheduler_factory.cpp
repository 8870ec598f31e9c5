#include "sched/scheduler_factory.hpp"

#include <stdexcept>

namespace pas::sched {

std::unique_ptr<hv::Scheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kCredit:
      return std::make_unique<CreditScheduler>();
    case SchedulerKind::kSedf:
      return std::make_unique<SedfScheduler>();
    case SchedulerKind::kCredit2:
      return std::make_unique<Credit2Scheduler>();
  }
  throw std::invalid_argument("make_scheduler: bad kind");
}

}  // namespace pas::sched
