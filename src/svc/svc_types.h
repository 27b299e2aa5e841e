// Shared vocabulary of the multi-group leader service (src/svc): a runtime
// that multiplexes thousands of independent Ω election groups — one
// per lock namespace, lease table, partition, ... — onto a fixed pool of
// worker threads, and answers leader() queries from an epoch-validated
// cache without touching the election hot path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "core/factory.h"

namespace omega::svc {

/// Application-chosen key of one election group (a lease id, a partition
/// number, a hash of a lock namespace, ...). Groups are hash-sharded onto
/// workers by this id.
using GroupId = std::uint64_t;

struct Group;  // defined in group_registry.h

/// Seam for application subsystems that ride a group's executors (the
/// replicated log in src/smr is the canonical one). attach() is invoked
/// from the Group constructor — after the Ω instance and executors exist,
/// before the group is visible to any worker — so the pump can bind its
/// registers and stash the group. on_sweep() runs on the owning shard
/// worker once per sweep, after the group was stepped; that worker is the
/// executors' owner thread, so the pump may spawn app tasks and reap
/// finished ones there. Its return value is the adaptive-pacing traffic
/// signal: true when the sweep found application work (commits harvested,
/// commands queued or in flight), false for a pure-maintenance sweep —
/// see SvcConfig::max_pace_us. A pump with work for the very next sweep
/// (or an event source on another thread) calls Group::wake() instead of
/// waiting out the pace. Exceptions escaping on_sweep are model
/// violations and fail the group like any task throw.
class GroupPump {
 public:
  virtual ~GroupPump() = default;
  virtual void attach(Group& g) = 0;
  virtual bool on_sweep(Group& g, std::int64_t now_us) = 0;
};

/// Per-group instantiation parameters.
struct GroupSpec {
  AlgoKind algo = AlgoKind::kWriteEfficient;
  std::uint32_t n = 3;  ///< processes in this group's election
  /// Optional application registers declared into the group's memory (the
  /// factory's LayoutExtension hook), e.g. a replicated log's slots.
  LayoutExtension extra_registers{};
  /// Optional application pump stepped by the owning worker (see above).
  std::shared_ptr<GroupPump> pump{};
  /// Replicas hosted by THIS process (bit p set ⇒ replica p executes
  /// here). 0 means "all local" — the classic single-process deployment.
  /// With remote replicas, only local ones get executors (the rest are
  /// nullptr slots in Group::execs), the group's memory should be a
  /// MirroredMemory wired to a push transport (see memory_factory), and
  /// agreement is judged over the local replicas' Ω views.
  std::uint64_t local_mask = 0;
  /// Optional storage override for the group's registers (defaults to
  /// rt::AtomicMemory). The multi-node runtime installs a factory that
  /// builds a MirroredMemory and registers it with the mirror transport.
  MemoryFactory memory_factory{};

  bool is_local(ProcessId p) const noexcept {
    return local_mask_covers(local_mask, p);
  }
};

/// Service-wide tuning knobs.
struct SvcConfig {
  /// Worker threads; groups are sharded across them (shard = worker).
  std::uint32_t workers = 4;
  /// Microseconds per timeout unit for every group's monitor timer.
  std::int64_t tick_us = 200;
  /// Timer-wheel slot granularity; due wakeups are batched per slot.
  std::int64_t wheel_slot_us = 256;
  /// Timer-wheel slot count (one wheel per worker).
  std::uint32_t wheel_slots = 256;
  /// Application-task operation budget per process per sweep (the log's
  /// proposers); caps how long a single group can hold a worker before
  /// its shard-mates get CPU. The Ω heartbeat is not charged to it: every
  /// sweep gives each process exactly one heartbeat iteration (T2's
  /// leader query plus the writes that follow it) — one timely PROGRESS
  /// write per monitor period is all the election needs.
  std::uint32_t ops_per_sweep = 8;
  /// Idle cadence: the longest wait between two sweeps (microseconds) when
  /// no event wakes the worker; 0 = free-running. Events that make work
  /// (an accepted append, a quorum ack releasing held acknowledgements, a
  /// slot the last sweep sealed) wake the worker at once (Group::wake),
  /// so the pace bounds how often idle groups heartbeat, not how long a
  /// request waits. On boxes with fewer cores than workers a small pace
  /// keeps the query frontend and control threads responsive.
  std::int64_t pace_us = 0;
  /// Adaptive idle cadence: when > pace_us, a sweep that harvests nothing
  /// — no timer fires, no epoch movement, no application-pump traffic —
  /// doubles the worker's wait from pace_us up to this cap, and any
  /// harvest snaps it back to pace_us. Converged idle groups then cost
  /// heartbeat writes at the backed-off cadence instead of a spinning
  /// core. Pick it with margin under the monitor timeout (tick_us × the
  /// algorithm's timeout value), or the slowed heartbeats will look like
  /// crashes. 0 disables (fixed pace_us).
  std::int64_t max_pace_us = 0;
  /// Niceness the workers give themselves at start (0 = inherit). Once a
  /// fleet is converged, stepping is pure maintenance: on machines where
  /// the pool shares cores with serving threads (the net front-end, an
  /// application), a high niceness keeps sweep bursts from sitting in
  /// front of latency-sensitive work — the scheduler preempts the worker
  /// almost immediately instead of letting it finish its timeslice.
  /// Raising one's own niceness needs no privilege. Linux-only; ignored
  /// elsewhere. Pick timeouts (`tick_us`) with enough margin over the
  /// *deprioritized* sweep interval, or monitors will suspect live peers.
  int worker_nice = 0;
};

/// One answer from the query frontend. `epoch` increments every time the
/// cached leader view of the group changes (including changes to "no
/// agreement"), so lease holders can detect staleness with one compare:
/// a fencing token obtained at epoch E is valid iff the current epoch is
/// still E.
struct LeaderView {
  ProcessId leader = kNoProcess;  ///< kNoProcess while the group disagrees
  std::uint64_t epoch = 0;

  friend bool operator==(const LeaderView&, const LeaderView&) = default;
};

/// Push seam for epoch transitions: invoked by the owning shard worker
/// right after it publishes a new cached view (i.e. `epoch` just moved).
/// Consumers (the network watch hub, benches) get transitions pushed to
/// them instead of polling `leader()`. The callback runs on the worker's
/// stepping path, so it must be cheap and must never block on work that
/// itself waits for this worker — hand off to another thread for anything
/// heavier than enqueue+wake.
using EpochListener = std::function<void(GroupId, const LeaderView&)>;

/// Point-in-time observation of one group (control-plane, not hot path).
struct GroupStatus {
  LeaderView view;
  std::vector<ProcessId> local_views;  ///< each process's own leader estimate
  std::vector<bool> crashed;           ///< per-process crash flags
  bool failed = false;  ///< a task of this group threw (model violation)
};

/// Aggregate runtime counters across all workers.
struct SvcStats {
  std::uint64_t steps = 0;        ///< operations executed (all tasks)
  std::uint64_t sweeps = 0;       ///< full shard passes
  std::uint64_t timer_fires = 0;  ///< monitor wakeups delivered
  std::uint64_t groups = 0;       ///< groups currently registered
  std::int64_t max_pace_us = 0;   ///< deepest current adaptive back-off
};

}  // namespace omega::svc
