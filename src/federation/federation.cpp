#include "federation/federation.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/divergence.hpp"

namespace pas::fed {

Federation::Federation(FederationConfig config,
                       std::vector<std::unique_ptr<cluster::Cluster>> shards)
    : cfg_(std::move(config)), shards_(std::move(shards)) {
  if (shards_.empty())
    throw std::invalid_argument("Federation: need at least one shard");
  if (!cfg_.racks.empty() && cfg_.racks.size() != shards_.size())
    throw std::invalid_argument("Federation: racks must map every shard");

  const auto n = static_cast<ShardId>(shards_.size());
  const std::size_t executors =
      cfg_.threads == 0 ? common::ThreadPool::hardware_threads() : cfg_.threads;
  pool_ = std::make_unique<common::ThreadPool>(std::min<std::size_t>(executors, n));
  host_base_.resize(n);
  local_fed_.resize(n);
  pending_in_mb_.assign(n, 0.0);
  std::uint32_t base = 0;
  for (ShardId s = 0; s < n; ++s) {
    host_base_[s] = base;
    base += static_cast<std::uint32_t>(shards_[s]->host_count());
    // Enroll every pre-existing VM: shards in id order, VMs in id order —
    // the FedVmId assignment is a pure function of the shard contents.
    const auto nv = static_cast<cluster::GlobalVmId>(shards_[s]->vm_count());
    local_fed_[s].resize(nv);
    for (cluster::GlobalVmId v = 0; v < nv; ++v) {
      local_fed_[s][v] = static_cast<FedVmId>(vm_loc_.size());
      vm_loc_.push_back({s, v});
    }
  }
  // Every unordered pair gets its link up front: link() stays total and a
  // runtime re-price can never invent a link that wasn't planned.
  for (ShardId a = 0; a < n; ++a) {
    for (ShardId b = a + 1; b < n; ++b) {
      const bool same_rack = !cfg_.racks.empty() && cfg_.racks[a] == cfg_.racks[b];
      Link link;
      link.model = same_rack ? cfg_.cross_rack : cfg_.wan;
      link.engine =
          std::make_unique<cluster::MigrationEngine>(link.model.migration, events_);
      links_.emplace(std::make_pair(a, b), std::move(link));
    }
  }
}

Federation::~Federation() = default;

Federation::Link& Federation::link_between(ShardId a, ShardId b) {
  if (a == b) throw std::invalid_argument("Federation: no self link");
  return links_.at(a < b ? std::make_pair(a, b) : std::make_pair(b, a));
}

const LinkModel& Federation::link(ShardId a, ShardId b) const {
  if (a == b) throw std::invalid_argument("Federation: no self link");
  return links_.at(a < b ? std::make_pair(a, b) : std::make_pair(b, a)).model;
}

std::uint32_t Federation::global_host_id(ShardId shard, cluster::HostId host) const {
  return host_base_.at(shard) + host;
}

void Federation::advance_shards(common::SimTime target) {
  // One fork-join over the shards, one shard per index (grain 1: a shard
  // is a whole segment's worth of work). Shards share no mutable state
  // between federation events, so each index computes exactly what the
  // serial loop would; the barrier restores the synchronized picture
  // before any federation event looks. A shard's own pool is driven by
  // one executor at a time and successive drivers are separated by this
  // barrier — the ThreadPool one-coordinator rule still holds. If shards
  // throw, every shard still reaches `target` and the lowest shard's
  // exception surfaces, whatever the thread count.
  pool_->parallel_for(
      shards_.size(), [this, target](std::size_t s) { shards_[s]->run_until(target); }, 1);
}

void Federation::run_until(common::SimTime until) {
  if (!started_) {
    // A single shard schedules NOTHING here: no planner (nothing to
    // balance), no links. The loop below then degenerates to one
    // advance_shards per call — byte-exact to driving the bare Cluster,
    // because extra segment cuts would reorder its FP energy summation.
    if (shards_.size() > 1) {
      const common::SimTime p = cfg_.planner.period;
      planner_task_ = std::make_unique<sim::PeriodicTask>(
          events_, p, p, [this](common::SimTime t) { planner_tick(t); });
    }
    started_ = true;
  }
  // The cluster's lockstep loop, one level up. A shard's own events at t
  // fire inside its run_until(t) — before any federation event at t, a
  // fixed order independent of engine or thread count.
  sim::run_lockstep(events_, now_, until,
                    [this](common::SimTime target) { advance_shards(target); });
}

bool Federation::migrate(ShardId from_shard, cluster::GlobalVmId vm, ShardId to_shard,
                         cluster::HostId to_host) {
  if (from_shard >= shards_.size() || to_shard >= shards_.size())
    throw std::invalid_argument("Federation: bad shard id");
  cluster::Cluster& src = *shards_[from_shard];
  if (vm >= src.vm_count()) throw std::invalid_argument("Federation: bad VM id");
  // Same shard: the intra-rack tier, i.e. the shard's own engine.
  if (from_shard == to_shard) return src.migrate(vm, to_host);

  cluster::Cluster& dst = *shards_[to_shard];
  if (to_host >= dst.host_count())
    throw std::invalid_argument("Federation: bad destination host");
  if (src.vm_state(vm) != cluster::VmState::kRunning) return false;
  if (src.migrating(vm) || src.federation_locked(vm)) return false;
  if (dst.crashed(to_host)) return false;
  const FedVmId fed = local_fed_[from_shard][vm];
  if (flights_.contains(fed)) return false;

  Link& link = link_between(from_shard, to_shard);
  const cluster::HostId from_host = src.residence(vm);
  const platform::HostClass& src_cls = src.host_class(from_host);
  const platform::HostClass& dst_cls = dst.host_class(to_host);
  const cluster::ClusterVmConfig cfg = src.vm_config(vm);

  // Fence the shard manager off the VM, then register the destination end
  // (slot parked, SLA registered, host powered, state kInbound).
  src.set_federation_lock(vm);
  const cluster::GlobalVmId dst_vm = dst.admit_inbound(cfg, to_host);
  local_fed_[to_shard].resize(dst.vm_count(), 0);
  local_fed_[to_shard][dst_vm] = fed;

  cluster::MigrationEngine::Endpoint source{&src.host(from_host), src.home_slot(vm),
                                            &src.agent(from_host), 0};
  cluster::MigrationEngine::Endpoint dest{&dst.host(to_host),
                                          dst.slot_on(to_host, dst_vm),
                                          &dst.agent(to_host), 0};
  flights_.emplace(fed, FedFlight{fed, from_shard, to_shard, vm, dst_vm, from_host,
                                  to_host, link.model.kind, cfg.memory_mb});
  pending_in_mb_[to_shard] += cfg.memory_mb;
  // The link's own engine runs the classic pre-copy over the federation
  // queue; class-aware surcharges land as a stretched dirty rate and a
  // per-flight switch-over addition (which survives bandwidth re-plans).
  link.engine->begin(
      fed, global_host_id(from_shard, from_host), global_host_id(to_shard, to_host),
      source, dest, cfg.memory_mb,
      cfg.dirty_mb_per_s * link.model.dirty_factor(src_cls, dst_cls), cfg.vm.credit,
      now_, [this, fed](const cluster::MigrationRecord& r) { on_link_done(fed, r); },
      [this, fed](const cluster::MigrationRecord&) { on_link_detach(fed); },
      link.model.switch_penalty(src_cls, dst_cls));
  ++moves_issued_;
  return true;
}

void Federation::on_link_detach(FedVmId vm) {
  // Stop-and-copy began: the engine drained the source slot; the source
  // shard now sees the VM as departed (no SLA, no planning, no recovery).
  const FedFlight& f = flights_.at(vm);
  shards_[f.from_shard]->mark_departed(f.src_vm);
}

void Federation::on_link_done(FedVmId vm, const cluster::MigrationRecord& record) {
  const auto it = flights_.find(vm);
  const FedFlight f = it->second;
  flights_.erase(it);
  pending_in_mb_[f.to_shard] -= f.memory_mb;
  // The engine's attach already delivered workload + credit into the
  // destination slot; complete_inbound flips kInbound -> kRunning and
  // charges the pause.
  shards_[f.to_shard]->complete_inbound(f.dst_vm, record.downtime);
  vm_loc_[f.vm] = FedVmRef{f.to_shard, f.dst_vm};
  records_.push_back(FedMigrationRecord{f.vm, f.from_shard, f.to_shard, f.from_host,
                                        f.to_host, f.src_vm, f.dst_vm, f.link, record});
}

void Federation::set_link_bandwidth(ShardId a, ShardId b, double mb_per_s) {
  if (a >= shards_.size() || b >= shards_.size())
    throw std::invalid_argument("Federation: bad shard id");
  if (a == b) {  // the shard's internal (intra-rack) link
    shards_[a]->set_link_bandwidth(mb_per_s);
    return;
  }
  Link& link = link_between(a, b);
  link.model.migration.link_mb_per_s = mb_per_s;
  // Re-plans this link's in-flight pre-copies and nobody else's — each
  // link is its own engine, so the isolation is structural.
  link.engine->set_link_bandwidth(mb_per_s);
}

Federation::ShardLoad Federation::shard_load(ShardId s) const {
  const cluster::Cluster& c = *shards_.at(s);
  // A direct deterministic scan of the live fleet, in id order — the one
  // path that works for every shard, whether or not it runs a manager.
  ShardLoad load;
  for (cluster::HostId h = 0; h < c.host_count(); ++h)
    if (!c.crashed(h)) load.capacity_mb += c.host_memory_mb(h);
  const auto nv = static_cast<cluster::GlobalVmId>(c.vm_count());
  for (cluster::GlobalVmId g = 0; g < nv; ++g)
    if (c.vm_state(g) == cluster::VmState::kRunning)
      load.reserved_mb += c.vm_config(g).memory_mb;
  load.reserved_mb += pending_in_mb_.at(s);
  return load;
}

void Federation::planner_tick(common::SimTime /*now*/) {
  ++planner_ticks_;
  const auto n = static_cast<ShardId>(shards_.size());
  std::vector<ShardLoad> loads(n);
  for (ShardId s = 0; s < n; ++s) loads[s] = shard_load(s);

  std::size_t budget = cfg_.planner.max_cross_shard_per_tick;
  while (budget > 0) {
    // Most- and least-utilized shard; ties break to the lowest id (strict
    // comparisons), keeping the choice deterministic.
    ShardId hi = 0;
    ShardId lo = 0;
    for (ShardId s = 1; s < n; ++s) {
      if (loads[s].utilization() > loads[hi].utilization()) hi = s;
      if (loads[s].utilization() < loads[lo].utilization()) lo = s;
    }
    if (hi == lo) break;
    if (loads[hi].utilization() - loads[lo].utilization() <
        cfg_.planner.imbalance_threshold)
      break;

    // Destination: the least-loaded shard's live host with the most free
    // reserved memory (running + inbound residents subtracted; ties to the
    // lowest id).
    const cluster::Cluster& dst = *shards_[lo];
    bool have_host = false;
    cluster::HostId best_host = 0;
    double best_free = 0.0;
    for (cluster::HostId h = 0; h < dst.host_count(); ++h) {
      if (dst.crashed(h)) continue;
      double free = dst.host_memory_mb(h);
      for (const auto& [gid, slot] : dst.host_slots(h)) {
        if (dst.residence(gid) != h) continue;
        const cluster::VmState st = dst.vm_state(gid);
        if (st == cluster::VmState::kRunning || st == cluster::VmState::kInbound)
          free -= dst.vm_config(gid).memory_mb;
      }
      if (!have_host || free > best_free) {
        have_host = true;
        best_free = free;
        best_host = h;
      }
    }
    if (!have_host) break;

    // Candidate: the most-loaded shard's largest running, unfenced VM that
    // fits the chosen destination (ties to the lowest id).
    const cluster::Cluster& srcc = *shards_[hi];
    bool have_vm = false;
    cluster::GlobalVmId best_vm = 0;
    double best_mem = 0.0;
    const auto nv = static_cast<cluster::GlobalVmId>(srcc.vm_count());
    for (cluster::GlobalVmId g = 0; g < nv; ++g) {
      if (srcc.vm_state(g) != cluster::VmState::kRunning) continue;
      if (srcc.migrating(g) || srcc.federation_locked(g)) continue;
      const double mem = srcc.vm_config(g).memory_mb;
      if (mem > best_free) continue;
      if (!have_vm || mem > best_mem) {
        have_vm = true;
        best_mem = mem;
        best_vm = g;
      }
    }
    if (!have_vm) break;
    if (!migrate(hi, best_vm, lo, best_host)) break;
    --budget;
    // Book the move against this tick's aggregates so the loop converges
    // instead of re-picking the same pair forever.
    loads[hi].reserved_mb -= best_mem;
    loads[lo].reserved_mb += best_mem;
  }
}

std::optional<std::string> first_divergence(const Federation& a, const Federation& b) {
  using common::FieldDiff;
  if (auto d = FieldDiff{}
                   .field("shard_count", a.shard_count(), b.shard_count())
                   .field("cross-shard records", a.cross_shard_records().size(),
                          b.cross_shard_records().size())
                   .field("vm_count", a.vm_count(), b.vm_count())
                   .first())
    return d;
  for (ShardId s = 0; s < a.shard_count(); ++s)
    if (auto d = cluster::first_divergence(a.shard(s), b.shard(s)))
      return "shard " + std::to_string(s) + ": " + *d;
  for (std::size_t i = 0; i < a.cross_shard_records().size(); ++i) {
    const FedMigrationRecord& ra = a.cross_shard_records()[i];
    const FedMigrationRecord& rb = b.cross_shard_records()[i];
    auto d = FieldDiff{}
                 .field("vm", ra.vm, rb.vm)
                 .field("from_shard", ra.from_shard, rb.from_shard)
                 .field("to_shard", ra.to_shard, rb.to_shard)
                 .field("from_host", ra.from_host, rb.from_host)
                 .field("to_host", ra.to_host, rb.to_host)
                 .field("src_vm", ra.src_vm, rb.src_vm)
                 .field("dst_vm", ra.dst_vm, rb.dst_vm)
                 .field("link", ra.link, rb.link)
                 .first();
    if (!d) d = cluster::migration_divergence(ra.record, rb.record);
    if (d) return "cross-shard record " + std::to_string(i) + " " + *d;
  }
  for (FedVmId v = 0; v < a.vm_count(); ++v)
    if (auto d = FieldDiff{}
                     .field("shard", a.locate(v).shard, b.locate(v).shard)
                     .field("local id", a.locate(v).vm, b.locate(v).vm)
                     .first())
      return "fed vm " + std::to_string(v) + " " + *d;
  return FieldDiff{}
      .field("planner_ticks", a.planner_ticks(), b.planner_ticks())
      .field("moves_issued", a.moves_issued(), b.moves_issued())
      .field("cross_shard_in_flight", a.cross_shard_in_flight(), b.cross_shard_in_flight())
      .first();
}

}  // namespace pas::fed
