// The run digest: one 64-bit hash over every observable a finished run
// exposes through public accessors. Floating-point values enter as their
// raw bits, so two runs digest-equal only if they agree bit for bit.
//
// Covered per cluster: each host's trace rows (all columns), idle time,
// per-slot busy time and work, power and crash state and energy; each VM's
// state, residence, home slot, totals, and SLA counters; every migration
// and recovery record field; the cluster's energy and mean power. A
// federation adds its planner counts, the cross-shard ledger and the VM
// registry.
#include <bit>

#include "bench.hpp"

namespace perfbench {

namespace {

class Hasher {
 public:
  void word(std::uint64_t w) {
    // splitmix64 finalizer over the running state.
    std::uint64_t z = state_ ^ w;
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    state_ = z ^ (z >> 31);
  }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void time(pas::common::SimTime t) { word(static_cast<std::uint64_t>(t.us())); }
  void reals(std::span<const double> vs) {
    word(vs.size());
    for (const double v : vs) real(v);
  }
  void record(const pas::cluster::MigrationRecord& r) {
    word(r.vm);
    word(r.from);
    word(r.to);
    time(r.start);
    time(r.stop);
    time(r.end);
    word(r.rounds);
    real(r.transferred_mb);
    time(r.downtime);
    word(static_cast<std::uint64_t>(r.outcome));
    time(r.credit_exported);
    time(r.credit_imported);
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0x5045524642454e43ULL;  // "PERFBENC"
};

void hash_cluster(Hasher& h, const pas::cluster::Cluster& c) {
  h.time(c.now());
  h.word(c.host_count());
  for (pas::cluster::HostId id = 0; id < c.host_count(); ++id) {
    const pas::hv::Host& host = c.host(id);
    h.time(host.now());
    h.time(host.idle_time());
    h.real(c.host_energy_joules(id));
    h.word(c.powered_on(id) ? 1 : 0);
    h.word(c.crashed(id) ? 1 : 0);
    h.word(host.vm_count());
    for (pas::common::VmId v = 0; v < host.vm_count(); ++v) {
      h.time(host.vm(v).total_busy);
      h.real(host.vm(v).total_work.mfus());
    }
    const pas::metrics::TraceRecorder& trace = host.trace();
    h.word(trace.size());
    for (const auto row : trace.samples()) {
      h.time(row.t);
      h.real(row.freq_mhz);
      h.real(row.global_load_pct);
      h.real(row.absolute_load_pct);
      h.reals(row.vm_global_pct);
      h.reals(row.vm_absolute_pct);
      h.reals(row.vm_credit_pct);
      h.reals(row.vm_saturated);
    }
  }

  h.word(c.vm_count());
  for (pas::cluster::GlobalVmId vm = 0; vm < c.vm_count(); ++vm) {
    h.word(static_cast<std::uint64_t>(c.vm_state(vm)));
    h.word(c.residence(vm));
    h.word(c.home_slot(vm));
    h.word(c.migrating(vm) ? 1 : 0);
    const pas::cluster::ClusterVmStats s = c.vm_stats(vm);
    h.time(s.total_busy);
    h.real(s.total_work.mfus());
    h.time(s.downtime);
    h.word(s.migrations);
    h.time(c.sla().violation_time(vm));
    h.time(c.sla().observed_time(vm));
    h.real(c.sla().worst_shortfall_pct(vm));
  }

  h.word(c.migrations().size());
  for (const pas::cluster::MigrationRecord& r : c.migrations()) h.record(r);
  h.word(c.recoveries().size());
  for (const pas::cluster::VmRecovery& r : c.recoveries()) {
    h.word(r.vm);
    h.time(r.crashed_at);
    h.time(r.restarted_at);
  }
  h.real(c.energy_joules());
  h.real(c.average_watts());
}

}  // namespace

std::uint64_t digest(const Fleet& fleet) {
  Hasher h;
  h.word(fleet.clusters().size());
  for (const pas::cluster::Cluster* c : fleet.clusters()) hash_cluster(h, *c);
  if (const pas::fed::Federation* f = fleet.federation()) {
    h.word(f->planner_ticks());
    h.word(f->moves_issued());
    h.word(f->cross_shard_in_flight());
    h.word(f->cross_shard_records().size());
    for (const pas::fed::FedMigrationRecord& r : f->cross_shard_records()) {
      h.word(r.vm);
      h.word(r.from_shard);
      h.word(r.to_shard);
      h.word(r.from_host);
      h.word(r.to_host);
      h.word(r.src_vm);
      h.word(r.dst_vm);
      h.word(static_cast<std::uint64_t>(r.link));
      h.record(r.record);
    }
    h.word(f->vm_count());
    for (pas::fed::FedVmId v = 0; v < f->vm_count(); ++v) {
      h.word(f->locate(v).shard);
      h.word(f->locate(v).vm);
    }
  }
  return h.value();
}

}  // namespace perfbench
