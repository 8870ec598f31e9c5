// Sharded multi-cluster federation: one coordinator over N Cluster shards
// on a shared virtual clock, with a global planner tier above the
// per-shard ClusterManagers and cross-shard live migrations priced per
// link (see link_model.hpp).
//
// Clock model — the cluster's lockstep contract, lifted one level: shards
// never interact except through FEDERATION events (planner ticks, link
// migration phases), and every federation event fires at an instant where
// all shards have been advanced to exactly that time. run_until therefore
// alternates
//
//     advance every shard to the next federation event -> fire the event
//
// with the shards advanced concurrently: one fork-join over the K shards
// per federation event, on the federation's own pool (FederationConfig::
// threads; each shard may still fan out on its own engine inside). Shards
// share no mutable state between federation events, so which executor
// advances which shard is a wall-clock choice only, and the events
// themselves fire serially on the coordinating thread after the barrier.
// A shard's own events at time t fire inside its run_until(t), i.e. BEFORE
// any federation event at t — a fixed, engine-independent order, so a
// federation run is byte-identical across fast/slow paths and thread
// counts exactly like a single cluster.
// With K = 1 the federation schedules NO events at all (nothing to
// balance, no links), so its run loop degenerates to one run_until per
// call — byte-exact to driving the bare Cluster, FP summation order
// included.
//
// Cross-shard migration reuses the cluster's MigrationEngine wholesale:
// each unordered shard pair owns one engine built from its link's
// MigrationConfig, scheduling on the FEDERATION queue (synced instants).
// The flight's source endpoint is the guest's live slot in the source
// shard; the destination endpoint is a slot admitted mid-run in the
// destination shard (Cluster::admit_inbound, state kInbound). The engine
// does what it always does — pre-copy rounds billing both hypervisor
// agents, detach draining workload+credit from the source, attach
// delivering both into the destination — and the federation's callbacks
// keep the shard bookkeeping honest: mark_departed at detach,
// complete_inbound (with the SLA-charged pause) at attach. The source
// shard's manager and control plane are fenced off the VM through
// pre-copy via Cluster::set_federation_lock (mark_departed unlocks).
// Neither endpoint host can crash while the flight is unresolved —
// Cluster::crash_host refuses a host holding a fed-locked running VM or a
// kInbound one, the same refusal contract as the last live host.
//
// Planner: a tick every kPlannerPeriod (120 s, in run_until) reads
// per-shard aggregates — one deterministic scan of each shard's live hosts
// and running VMs (shard_load) — and issues at most kMaxCrossShardPerTick
// moves from the most- to the least-utilized shard while their
// reserved-memory utilization gap exceeds kImbalanceThreshold (both
// constants live in planner_tick). The global tier balances shard
// AGGREGATES; placement inside a shard stays the shard manager's own
// business.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/thread_pool.hpp"
#include "federation/link_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/periodic.hpp"

namespace pas::fed {

using ShardId = std::uint32_t;
/// Federation-wide VM identity: stable across shard hops (a VM's per-shard
/// GlobalVmId changes when it crosses a link; this id never does).
using FedVmId = std::uint32_t;

struct FederationConfig {
  /// Rack id per shard: same-rack shard pairs talk over cross_rack_link(),
  /// different racks over wan_link(). Empty = every shard its own rack
  /// (all-WAN). (A shard's internal link — its ClusterConfig::migration —
  /// is the intra-rack tier.)
  std::vector<std::uint32_t> racks;
  /// Executors advancing shards between federation events, with the
  /// meaning of cluster::ClusterConfig::threads (0 = one per hardware
  /// thread). The pool is capped at the shard count: a shard is the unit
  /// of work, so executors beyond K would only idle.
  std::size_t threads = 1;
};

/// Where a federation VM currently lives.
struct FedVmRef {
  ShardId shard = 0;
  cluster::GlobalVmId vm = 0;
};

/// One completed cross-shard migration. `record.from`/`record.to` carry
/// federation-global host ids (global_host_id); `record.vm` the FedVmId.
struct FedMigrationRecord {
  FedVmId vm = 0;
  ShardId from_shard = 0;
  ShardId to_shard = 0;
  cluster::HostId from_host = 0;      // shard-local
  cluster::HostId to_host = 0;        // shard-local
  cluster::GlobalVmId src_vm = 0;     // the VM's id in the source shard (kDeparted)
  cluster::GlobalVmId dst_vm = 0;     // its id in the destination shard
  LinkKind link = LinkKind::kWan;
  cluster::MigrationRecord record;
};

class Federation {
 public:
  /// Takes ownership of the shards. Every VM already added to a shard is
  /// enrolled with a FedVmId (shards in id order, VMs in id order within
  /// each shard). Shards must not have started running yet.
  Federation(FederationConfig config, std::vector<std::unique_ptr<cluster::Cluster>> shards);
  ~Federation();

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Advances every shard, in lockstep, to absolute time `until`.
  void run_until(common::SimTime until);

  /// Starts a cross-shard live migration of `vm` (source-shard id) onto
  /// `to_host` in `to_shard`, over the pair's link. Same-shard calls
  /// delegate to the shard's own migrate (the intra-rack tier). Returns
  /// false if the VM is not running, already in flight (either tier), or
  /// the destination is crashed. Callable from planner ticks and between
  /// run_until calls.
  bool migrate(ShardId from_shard, cluster::GlobalVmId vm, ShardId to_shard,
               cluster::HostId to_host);

  /// Re-prices one link at runtime. a == b sets shard a's INTERNAL link
  /// (Cluster::set_link_bandwidth); a != b sets the pair's federation link,
  /// re-planning that link's in-flight pre-copies and no other link's —
  /// the per-link isolation the link tests pin.
  void set_link_bandwidth(ShardId a, ShardId b, double mb_per_s);

  // --- accessors ---
  [[nodiscard]] common::SimTime now() const { return now_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] cluster::Cluster& shard(ShardId s) { return *shards_.at(s); }
  [[nodiscard]] const cluster::Cluster& shard(ShardId s) const { return *shards_.at(s); }
  /// The link model a cross-shard pair uses. Throws on a == b.
  [[nodiscard]] const LinkModel& link(ShardId a, ShardId b) const;
  /// Federation-global host id: shard host-count prefix sum + local id.
  [[nodiscard]] std::uint32_t global_host_id(ShardId shard, cluster::HostId host) const;
  /// Current location of a federation VM.
  [[nodiscard]] FedVmRef locate(FedVmId vm) const { return vm_loc_.at(vm); }
  [[nodiscard]] std::size_t vm_count() const { return vm_loc_.size(); }
  [[nodiscard]] bool in_cross_shard_flight(FedVmId vm) const {
    return flights_.contains(vm);
  }
  [[nodiscard]] std::size_t cross_shard_in_flight() const { return flights_.size(); }
  /// Completed cross-shard migrations, in completion order.
  [[nodiscard]] const std::vector<FedMigrationRecord>& cross_shard_records() const {
    return records_;
  }
  [[nodiscard]] std::size_t planner_ticks() const { return planner_ticks_; }
  [[nodiscard]] std::size_t moves_issued() const { return moves_issued_; }
  /// Executors of the shard fork-join (min(threads, K)); 1 = a plain loop.
  [[nodiscard]] std::size_t execution_threads() const { return pool_->thread_count(); }

  /// Per-shard aggregate the planner balances: live hosts' memory vs the
  /// memory of running VMs (a direct scan, ids ascending), plus memory
  /// already in flight toward the shard so concurrent planner ticks don't
  /// double-fill a destination.
  struct ShardLoad {
    double capacity_mb = 0.0;
    double reserved_mb = 0.0;
    [[nodiscard]] double utilization() const {
      return capacity_mb > 0.0 ? reserved_mb / capacity_mb : 1.0;
    }
  };
  [[nodiscard]] ShardLoad shard_load(ShardId s) const;

 private:
  struct Link {
    LinkModel model;
    std::unique_ptr<cluster::MigrationEngine> engine;
  };
  /// An unresolved cross-shard move: its ledger entry, whose engine
  /// record is filled in when the link completes it.
  struct FedFlight {
    FedMigrationRecord record;
    double memory_mb = 0.0;
  };

  void advance_shards(common::SimTime target);
  void planner_tick(common::SimTime now);
  Link& link_between(ShardId a, ShardId b);
  void on_link_detach(FedVmId vm);
  void on_link_done(FedVmId vm, const cluster::MigrationRecord& record);

  FederationConfig cfg_;
  std::vector<std::unique_ptr<cluster::Cluster>> shards_;
  std::vector<std::uint32_t> host_base_;  // shard -> global host id offset

  /// Federation VM registry: id -> current location, and per shard the
  /// local-id -> FedVmId reverse map (grown as inbound VMs register).
  std::vector<FedVmRef> vm_loc_;
  std::vector<std::vector<FedVmId>> local_fed_;

  /// One engine per unordered shard pair (key: a < b), scheduling on the
  /// federation queue.
  std::map<std::pair<ShardId, ShardId>, Link> links_;
  std::map<FedVmId, FedFlight> flights_;  // ordered: deterministic iteration
  /// Memory in flight toward each shard (admitted kInbound, not yet
  /// attached) — counted into shard_load so the planner sees it.
  std::vector<double> pending_in_mb_;

  std::unique_ptr<common::ThreadPool> pool_;  // one executor spawns nothing
  sim::EventQueue events_;
  std::unique_ptr<sim::PeriodicTask> planner_task_;
  std::vector<FedMigrationRecord> records_;
  std::size_t planner_ticks_ = 0;
  std::size_t moves_issued_ = 0;
  common::SimTime now_{};
  bool started_ = false;
};

/// The federation tier's identity comparator: nullopt when `a` and `b` ran
/// identically, else a message naming the first shard, ledger entry or VM
/// that differs. Every shard goes through cluster::first_divergence; on top
/// come the cross-shard ledger (every FedMigrationRecord field), the
/// planner counters and the VM registry.
[[nodiscard]] std::optional<std::string> first_divergence(const Federation& a,
                                                          const Federation& b);

}  // namespace pas::fed
