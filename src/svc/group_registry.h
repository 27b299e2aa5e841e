// GroupRegistry: owner of every election group in the service. Groups are
// hash-sharded by GroupId onto a fixed number of shards (one per worker);
// membership changes are mutex-protected and version-stamped per shard so
// workers can refresh their working set only when something changed, while
// the query frontend resolves GroupId → Group with one short lock.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "core/factory.h"
#include "rt/proc_executor.h"
#include "svc/leader_cache.h"
#include "svc/svc_types.h"
#include "svc/waker.h"

namespace omega::svc {

/// One election group: a complete Ω instance (layout + atomic registers +
/// n processes) plus the per-process executors that step it and the cached
/// leader view the frontend serves. Stepping is exclusive to the owning
/// shard's worker; everything observable cross-thread is atomic.
struct Group {
  /// `clock` (optional) timestamps the group's instrumentation events; it
  /// is installed before the group becomes visible to any worker.
  /// `waker` (optional) is the owning shard's; the pump may wake() it
  /// from attach() on.
  Group(GroupId id, const GroupSpec& spec, std::int64_t tick_us,
        const std::function<SimTime()>& clock, Waker* waker = nullptr);

  const GroupId id;
  const GroupSpec spec;
  OmegaInstance inst;
  std::vector<std::unique_ptr<ProcExecutor>> execs;
  LeaderCacheEntry cache;
  std::atomic<bool> retired{false};  ///< unlinked; worker drops it on sight
  std::atomic<bool> failed{false};   ///< a task threw (model violation)
  Waker* const waker;  ///< the owning shard worker's (nullptr: none)

  /// Cuts the owning worker's current wait short, so the next sweep of
  /// this group's shard starts now. Any thread; coalesced (see Waker).
  void wake() const {
    if (waker != nullptr) waker->wake();
  }

  /// The group's agreed view: the id every live process's last leader()
  /// output names, provided that id is itself live; kNoProcess while the
  /// group disagrees (anarchy or mid-fail-over).
  ProcessId agreed() const;
};

class GroupRegistry {
 public:
  /// `num_shards` — fixed at construction (one shard per worker);
  /// `tick_us` — timeout unit handed to every group's executors;
  /// `clock` — optional instrumentation clock installed into every group.
  GroupRegistry(std::uint32_t num_shards, std::int64_t tick_us,
                std::function<SimTime()> clock = {});

  /// Deterministic home shard of a group id (stable across add/remove).
  std::uint32_t shard_of(GroupId gid) const noexcept;
  std::uint32_t num_shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Creates and registers a group. Throws InvariantViolation on a
  /// duplicate id.
  std::shared_ptr<Group> add(GroupId gid, const GroupSpec& spec);

  /// Marks the group retired and unlinks it; the owning worker drops its
  /// reference at the next sweep. Returns false if the id is unknown.
  bool remove(GroupId gid);

  /// Query-frontend lookup; nullptr if absent. One short shard lock.
  std::shared_ptr<Group> find(GroupId gid) const;

  std::size_t size() const;

  /// Bumped on every membership change of the shard; workers compare
  /// against their last seen value to decide whether to re-snapshot.
  std::uint64_t shard_version(std::uint32_t shard) const;

  /// Copies the shard's current groups into `out` (replacing contents).
  void snapshot_shard(std::uint32_t shard,
                      std::vector<std::shared_ptr<Group>>& out) const;

  /// The shard's waker: its worker waits on it between sweeps, and every
  /// group of the shard wakes it (Group::wake).
  Waker& waker(std::uint32_t shard);

  // --- epoch-change seam ---------------------------------------------------

  /// Installs (or clears, with an empty function) the listener that
  /// `notify_epoch_change` fans out to. Safe to call at any time, including
  /// while the worker pool is running — and it is a barrier: by the time
  /// it returns, no in-flight invocation of the *previous* listener is
  /// still running, so a consumer may tear down the state its callback
  /// captured right after clearing it.
  void set_epoch_listener(EpochListener listener);

  /// Called by the shard worker that just published a new cached view for
  /// `gid`. Invokes the installed listener (if any) under a shared lock
  /// (concurrent notifies don't serialize; only a listener swap excludes
  /// them); exceptions from the listener are treated as a model violation
  /// and propagate to the worker's failure handling.
  void notify_epoch_change(GroupId gid, const LeaderView& view) const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<GroupId, std::shared_ptr<Group>> groups;
    std::atomic<std::uint64_t> version{0};
    Waker waker;
  };

  std::vector<Shard> shards_;  ///< sized once; Shard is pinned (mutex)
  std::int64_t tick_us_;
  std::function<SimTime()> clock_;
  std::atomic<std::size_t> total_{0};

  /// Reader/writer split: notifiers hold the shared side across the
  /// callback so a swap (unique side) doubles as a completion barrier.
  mutable std::shared_mutex listener_mu_;
  EpochListener listener_;
};

}  // namespace omega::svc
