#include "metrics/trace_export.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace pas::metrics {

wl::Trace vm_demand_trace(const TraceRecorder& recorder, common::VmId vm,
                          std::string name) {
  if (recorder.empty())
    throw std::invalid_argument("vm_demand_trace: recorder has no samples");
  if (vm >= recorder.vm_count())
    throw std::invalid_argument("vm_demand_trace: no such VM column");

  const auto samples = recorder.samples();
  const common::SimTime t0 = samples[0].t;
  // Row spacing = the stride; the first sample must close the window
  // [0, stride) exactly — a later start would mean unrecorded time that
  // the export would silently pass off as zero demand.
  const common::SimTime stride =
      samples.size() > 1 ? samples[1].t - samples[0].t : t0;
  if (stride.us() <= 0 || t0 != stride)
    throw std::invalid_argument(
        "vm_demand_trace: rows do not tile time from the epoch");
  for (std::size_t r = 1; r < samples.size(); ++r)
    if (samples[r].t - samples[r - 1].t != stride)
      throw std::invalid_argument(
          "vm_demand_trace: unequally spaced rows (stride changed at row " +
          std::to_string(r) + ")");

  std::vector<wl::TracePoint> points;
  points.reserve(samples.size() + 1);
  for (std::size_t r = 0; r < samples.size(); ++r) {
    wl::TracePoint p;
    p.t = samples[r].t - stride;
    p.demand_pct = wl::quantize_demand_pct(samples[r].vm_absolute_pct[vm]);
    points.push_back(p);
  }
  points.push_back(wl::TracePoint{samples[samples.size() - 1].t, 0.0, 0.0});
  return wl::Trace{std::move(points), std::move(name)};
}

}  // namespace pas::metrics
