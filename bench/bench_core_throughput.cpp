// Core-throughput bench: simulated-seconds-per-wall-second on a 32-VM
// hosting-center scenario, with the event-driven fast path A/B'd against
// the reference slow-stepped loop.
//
// The scenario models a hosting center at moderate load: a few dozen
// tenants whose web servers, batch jobs and thrashing loads come and go
// across the day while most capacity sits reserved-but-idle — exactly the
// long-horizon regime the dynamic-reconfiguration studies need. The bench
// asserts the fast path runs identically (hv::first_divergence), then
// records both rates and the speedup in BENCH_core.json.
//
// Usage: bench_core_throughput [--smoke] [--horizon=SECONDS]
//                              [--out=BENCH_core.json]
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "common/flags.hpp"
#include "governor/governors.hpp"
#include "hypervisor/host.hpp"
#include "sched/credit_scheduler.hpp"
#include "throughput_common.hpp"
#include "workload/load_profile.hpp"
#include "workload/pi_app.hpp"
#include "workload/synthetic.hpp"
#include "workload/web_app.hpp"

namespace {

using pas::bench::Json;
using pas::bench::run_timed;
using pas::common::mf_seconds;
using pas::common::seconds;
using pas::common::SimTime;

constexpr std::size_t kVmCount = 32;

std::unique_ptr<pas::hv::Host> build_host(bool fast_path, SimTime horizon) {
  pas::hv::HostConfig hc;
  hc.trace_stride = seconds(10);
  hc.event_driven_fast_path = fast_path;
  auto host = std::make_unique<pas::hv::Host>(
      hc, std::make_unique<pas::sched::CreditScheduler>());
  host->set_governor(pas::gov::make_governor("stable-ondemand"));

  const auto horizon_s = horizon.us() / 1'000'000;
  // A day-cycle hosting center: the business "day" (first half of the
  // horizon) sees staggered web traffic, thrashing loads and batch jobs
  // contending under their caps; the "night" (second half) is the
  // reserved-but-idle regime where a long-horizon study spends most of its
  // simulated time.
  //
  // 8 web tenants (2 % credit each): request pulses over 1/8 of the day.
  for (int i = 0; i < 8; ++i) {
    pas::hv::VmConfig cfg;
    cfg.name = "web" + std::to_string(i);
    cfg.credit = 2.0;
    pas::wl::WebAppConfig wc;
    wc.queue_capacity = 500;
    wc.seed = 100 + static_cast<std::uint64_t>(i);
    const double rate = pas::wl::WebApp::rate_for_demand(cfg.credit, wc.request_cost);
    const auto from = seconds(horizon_s * i / 32);
    const auto until = seconds(horizon_s * i / 32 + horizon_s / 8);
    host->add_vm(cfg, std::make_unique<pas::wl::WebApp>(
                          pas::wl::LoadProfile::pulse(from, until, rate), wc));
  }
  // 6 thrashing tenants (3 % credit): gated CPU hogs — the all-over-cap
  // idle path while the gate is open.
  for (int i = 0; i < 6; ++i) {
    pas::hv::VmConfig cfg;
    cfg.name = "hog" + std::to_string(i);
    cfg.credit = 3.0;
    const auto from = seconds(horizon_s / 8 + horizon_s * i / 32);
    const auto until = seconds(horizon_s / 8 + horizon_s * i / 32 + horizon_s / 12);
    host->add_vm(cfg, std::make_unique<pas::wl::GatedBusyLoop>(
                          pas::wl::LoadProfile::pulse(from, until, 1.0)));
  }
  // 6 batch tenants (5 % credit): short pi-app jobs with staggered starts
  // through the day.
  for (int i = 0; i < 6; ++i) {
    pas::hv::VmConfig cfg;
    cfg.name = "batch" + std::to_string(i);
    cfg.credit = 5.0;
    host->add_vm(cfg, std::make_unique<pas::wl::PiApp>(
                          mf_seconds(static_cast<double>(horizon_s) / 400.0),
                          seconds(horizon_s * i / 16)));
  }
  // 12 reserved-but-idle tenants.
  for (int i = 0; i < 12; ++i) {
    pas::hv::VmConfig cfg;
    cfg.name = "idle" + std::to_string(i);
    cfg.credit = 2.0;
    host->add_vm(cfg, std::make_unique<pas::wl::IdleGuest>());
  }
  return host;
}

}  // namespace

int main(int argc, char** argv) {
  const pas::common::Flags flags{argc, argv};
  const long horizon_s = flags.get_int("horizon", flags.has("smoke") ? 400 : 4000);
  if (horizon_s < 32) {  // shorter horizons make the staggered windows empty
    std::fprintf(stderr, "bench_core_throughput: --horizon must be >= 32 (got %ld)\n",
                 horizon_s);
    return 2;
  }
  const std::string out = flags.get_or("out", "BENCH_core.json");
  const SimTime horizon = seconds(horizon_s);

  std::printf("=== core throughput: 32-VM hosting center, %ld simulated s ===\n",
              horizon_s);

  // --only=fast / --only=slow runs a single mode (profiling); no JSON then.
  const std::string only = flags.get_or("only", "");
  if (!only.empty()) {
    if (only != "fast" && only != "slow") {
      std::fprintf(stderr, "bench_core_throughput: --only takes 'fast' or 'slow'\n");
      return 2;
    }
    auto host = build_host(/*fast_path=*/only == "fast", horizon);
    const double wall = run_timed(*host, horizon);
    std::printf("  %s loop: %8.2f wall ms   %10.0f sim-s/wall-s\n", only.c_str(),
                wall * 1e3, static_cast<double>(horizon_s) / wall);
    return 0;
  }

  auto slow_host = build_host(/*fast_path=*/false, horizon);
  const double slow_wall = run_timed(*slow_host, horizon);
  auto fast_host = build_host(/*fast_path=*/true, horizon);
  const double fast_wall = run_timed(*fast_host, horizon);
  const std::optional<std::string> divergence =
      pas::hv::first_divergence(*slow_host, *fast_host);
  const double speedup = slow_wall / fast_wall;

  const Json doc = Json{}
                       .str("bench", "core_throughput")
                       .str("scenario", "hosting_center_32vm")
                       .integer("vms", kVmCount)
                       .integer("simulated_seconds", horizon_s)
                       .obj("slow", Json::one_line()
                                        .num("wall_seconds", slow_wall, 6)
                                        .num("sim_per_wall", horizon_s / slow_wall, 1))
                       .obj("fast", Json::one_line()
                                        .num("wall_seconds", fast_wall, 6)
                                        .num("sim_per_wall", horizon_s / fast_wall, 1))
                       .num("speedup", speedup, 3)
                       .verdict("traces_identical", !divergence);
  std::fputs(doc.lines().c_str(), stdout);
  if (divergence) std::printf("  first divergence: %s\n", divergence->c_str());
  if (!doc.write(out, "bench_core_throughput")) return 2;

  if (divergence) return 1;
  if (flags.has("require-speedup") && speedup < 3.0) {
    std::printf("  FAIL: speedup %.2fx below the 3x bar\n", speedup);
    return 1;
  }
  return 0;
}
