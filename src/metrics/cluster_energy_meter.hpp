// Cluster-wide energy accounting with VOVO (Vary-On/Vary-Off) gating.
//
// Each simulated host meters itself continuously (metrics::EnergyMeter) —
// including while it idles. A consolidation manager, though, powers empty
// hosts off, and an off host draws nothing. Rather than teach every host a
// power state, the cluster meter gates each host's *cumulative* joules
// counter: while a host is off, growth of its counter is excluded from the
// cluster total. Power transitions snapshot the counter, so the arithmetic
// is exact regardless of how often state flips.
#pragma once

#include <cstddef>
#include <vector>

namespace pas::metrics {

class ClusterEnergyMeter {
 public:
  explicit ClusterEnergyMeter(std::size_t host_count) : per_host_(host_count) {}

  [[nodiscard]] std::size_t host_count() const { return per_host_.size(); }
  [[nodiscard]] bool powered(std::size_t host) const { return per_host_.at(host).on; }

  /// Flips a host's power state at the instant its meter reads
  /// `host_joules_now`. A no-op if the state is unchanged.
  void set_powered(std::size_t host, bool on, double host_joules_now) {
    PerHost& h = per_host_.at(host);
    if (h.on == on) return;
    if (h.on) h.accumulated += host_joules_now - h.baseline;  // close the on-interval
    else h.baseline = host_joules_now;                        // open a new one
    h.on = on;
  }

  /// This host's cluster-counted joules, given its meter's current reading.
  [[nodiscard]] double host_joules(std::size_t host, double host_joules_now) const {
    const PerHost& h = per_host_.at(host);
    return h.accumulated + (h.on ? host_joules_now - h.baseline : 0.0);
  }

 private:
  struct PerHost {
    bool on = true;
    double baseline = 0.0;
    double accumulated = 0.0;
  };
  std::vector<PerHost> per_host_;
};

}  // namespace pas::metrics
