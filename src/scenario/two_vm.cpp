#include "scenario/two_vm.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common/ascii_chart.hpp"
#include "common/stats.hpp"
#include "core/pas_controller.hpp"
#include "core/user_level_managers.hpp"
#include "governor/governors.hpp"
#include "hypervisor/host.hpp"
#include "metrics/sla_checker.hpp"
#include "workload/synthetic.hpp"
#include "workload/web_app.hpp"

namespace pas::scenario {

namespace {

/// The paper's credits (§5): V20 and V70 plus Dom0's remaining 10 %.
constexpr common::Percent kV20Credit = 20.0;
constexpr common::Percent kV70Credit = 70.0;
constexpr common::Percent kDom0Credit = 10.0;

std::unique_ptr<hv::Controller> build_controller(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kNone:
      return nullptr;
    case ControllerKind::kPas:
      return std::make_unique<core::PasController>();
    case ControllerKind::kUserLevelCredit:
      return std::make_unique<core::UserLevelCreditManager>();
    case ControllerKind::kUserLevelDvfsCredit:
      return std::make_unique<core::UserLevelDvfsCreditManager>();
  }
  throw std::invalid_argument("build_controller: bad kind");
}

std::unique_ptr<wl::Workload> build_guest_load(const TwoVmConfig& cfg, common::SimTime from,
                                               common::SimTime until, common::Percent credit,
                                               std::uint64_t seed) {
  if (cfg.load == LoadKind::kThrashing) {
    // Demand exceeding the VM capacity with no queue bound: a CPU hog gated
    // by the activity window.
    return std::make_unique<wl::GatedBusyLoop>(wl::LoadProfile::pulse(from, until, 1.0));
  }
  // Exact load: the injector generates 100 % of the VM's credited capacity
  // at maximum frequency, and no more. The queue is bounded to a few
  // seconds of work — httperf connections time out, they do not pile up
  // forever — so the load drops shortly after the active phase ends.
  wl::WebAppConfig wc;
  wc.queue_capacity = 500;
  wc.seed = seed;
  const double rate = wl::WebApp::rate_for_demand(credit, wc.request_cost);
  return std::make_unique<wl::WebApp>(wl::LoadProfile::pulse(from, until, rate), wc);
}

struct SeriesMean {
  common::RunningStats freq, global, absolute, v20g, v70g, v20a, v70a, v20c, v70c;
};

}  // namespace

TwoVmResult run_two_vm(const TwoVmConfig& cfg) {
  if (!(cfg.v20_from < cfg.v70_from && cfg.v70_from < cfg.v70_until &&
        cfg.v70_until < cfg.v20_until && cfg.v20_until < cfg.total))
    throw std::invalid_argument("run_two_vm: profile phases must nest as in the paper");

  hv::HostConfig hc;
  hc.ladder = cfg.ladder;
  hc.trace_stride = cfg.trace_stride;
  hv::Host host{hc, sched::make_scheduler(cfg.scheduler)};
  if (!cfg.governor.empty()) host.set_governor(gov::make_governor(cfg.governor));
  if (auto ctrl = build_controller(cfg.controller)) host.set_controller(std::move(ctrl));

  // Dom0: highest priority, light backend demand while any guest is active.
  {
    wl::WebAppConfig wc;
    wc.queue_capacity = 500;
    wc.seed = cfg.seed * 1000 + 1;
    const double rate = wl::WebApp::rate_for_demand(cfg.dom0_demand, wc.request_cost);
    hv::VmConfig dom0;
    dom0.name = "Dom0";
    dom0.credit = kDom0Credit;
    dom0.priority = 1;
    host.add_vm(dom0, std::make_unique<wl::WebApp>(
                          wl::LoadProfile::pulse(cfg.v20_from, cfg.v20_until, rate), wc));
  }
  {
    hv::VmConfig v20;
    v20.name = "V20";
    v20.credit = kV20Credit;
    host.add_vm(v20, build_guest_load(cfg, cfg.v20_from, cfg.v20_until, kV20Credit,
                                      cfg.seed * 1000 + 2));
  }
  {
    hv::VmConfig v70;
    v70.name = "V70";
    v70.credit = kV70Credit;
    host.add_vm(v70, build_guest_load(cfg, cfg.v70_from, cfg.v70_until, kV70Credit,
                                      cfg.seed * 1000 + 3));
  }

  host.run_until(cfg.total);

  TwoVmResult res;
  res.trace = host.trace();
  res.energy_joules = host.energy().joules();
  res.average_watts = host.energy().average_watts();
  res.freq_transitions = host.cpufreq().transition_count();

  // --- phase summaries ---
  struct PhaseDef {
    const char* name;
    common::SimTime from, until;
  };
  const PhaseDef defs[] = {
      {"warmup (idle)", common::SimTime{}, cfg.v20_from},
      {"phase1 V20-only", cfg.v20_from, cfg.v70_from},
      {"phase2 V20+V70", cfg.v70_from, cfg.v70_until},
      {"phase3 V20-only", cfg.v70_until, cfg.v20_until},
      {"tail (idle)", cfg.v20_until, cfg.total},
  };
  for (const auto& d : defs) {
    // Exclude transients: skip 10 % of the phase at each edge (min 30 s).
    const auto span = d.until - d.from;
    const common::SimTime margin =
        std::max(common::seconds(30), common::usec(span.us() / 10));
    const common::SimTime lo = d.from + margin;
    const common::SimTime hi = d.until - margin;
    SeriesMean m;
    for (const auto& s : res.trace.samples()) {
      if (s.t < lo || s.t >= hi) continue;
      m.freq.add(s.freq_mhz);
      m.global.add(s.global_load_pct);
      m.absolute.add(s.absolute_load_pct);
      m.v20g.add(s.vm_global_pct[res.v20]);
      m.v70g.add(s.vm_global_pct[res.v70]);
      m.v20a.add(s.vm_absolute_pct[res.v20]);
      m.v70a.add(s.vm_absolute_pct[res.v70]);
      m.v20c.add(s.vm_credit_pct[res.v20]);
      m.v70c.add(s.vm_credit_pct[res.v70]);
    }
    PhaseSummary p;
    p.name = d.name;
    p.from = d.from;
    p.until = d.until;
    p.mean_freq_mhz = m.freq.mean();
    p.mean_global_pct = m.global.mean();
    p.mean_absolute_pct = m.absolute.mean();
    p.v20_global_pct = m.v20g.mean();
    p.v70_global_pct = m.v70g.mean();
    p.v20_absolute_pct = m.v20a.mean();
    p.v70_absolute_pct = m.v70a.mean();
    p.v20_credit_pct = m.v20c.mean();
    p.v70_credit_pct = m.v70c.mean();
    res.phases.push_back(p);
  }

  // --- SLA accounting over trace samples ---
  metrics::SlaChecker sla;
  sla.register_vm(res.dom0, kDom0Credit);
  sla.register_vm(res.v20, kV20Credit);
  sla.register_vm(res.v70, kV70Credit);
  for (const auto& s : res.trace.samples()) {
    for (common::VmId vm : {res.v20, res.v70}) {
      sla.record_window(vm, cfg.trace_stride, s.vm_absolute_pct[vm],
                        s.vm_saturated[vm] > 0.5);
    }
  }
  res.v20_sla_violation = sla.violation_fraction(res.v20);
  res.v70_sla_violation = sla.violation_fraction(res.v70);
  return res;
}

std::string render_loads_chart(const TwoVmResult& result, bool absolute,
                               const std::string& title) {
  const auto freq = result.trace.series_freq();
  double fmax = 1.0;
  for (double f : freq) fmax = std::max(fmax, f);
  std::vector<double> freq_pct;
  freq_pct.reserve(freq.size());
  for (double f : freq) freq_pct.push_back(f / fmax * 100.0);

  std::vector<common::ChartSeries> series;
  series.push_back({"freq(%fmax)", '-', std::move(freq_pct)});
  series.push_back({"V70", '7', absolute ? result.trace.series_vm_absolute(result.v70)
                                         : result.trace.series_vm_global(result.v70)});
  series.push_back({"V20", '2', absolute ? result.trace.series_vm_absolute(result.v20)
                                         : result.trace.series_vm_global(result.v20)});

  common::ChartOptions opt;
  opt.title = title;
  opt.y_label = absolute ? "absolute load %" : "global load %";
  opt.x_label = "time -> (full run)";
  opt.y_min = 0.0;
  opt.y_max = 100.0;
  return common::render_chart(series, opt);
}

std::string render_phase_table(const TwoVmResult& result) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-18s %9s %8s %8s %8s %8s %8s %8s\n", "phase", "freq MHz",
                "V20 glb", "V70 glb", "V20 abs", "V70 abs", "V20 cap", "V70 cap");
  out += buf;
  for (const auto& p : result.phases) {
    std::snprintf(buf, sizeof(buf), "  %-18s %9.0f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f\n",
                  p.name.c_str(), p.mean_freq_mhz, p.v20_global_pct, p.v70_global_pct,
                  p.v20_absolute_pct, p.v70_absolute_pct, p.v20_credit_pct, p.v70_credit_pct);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  energy: %.0f J (avg %.1f W)   freq transitions: %llu   "
                "SLA violations: V20 %.1f%%  V70 %.1f%%\n",
                result.energy_joules, result.average_watts,
                static_cast<unsigned long long>(result.freq_transitions),
                100.0 * result.v20_sla_violation, 100.0 * result.v70_sla_violation);
  out += buf;
  return out;
}

}  // namespace pas::scenario
