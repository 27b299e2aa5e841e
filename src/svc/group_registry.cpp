#include "svc/group_registry.h"

#include "common/rng.h"
#include "rt/atomic_memory.h"

namespace omega::svc {

Group::Group(GroupId id_, const GroupSpec& spec_, std::int64_t tick_us,
             const std::function<SimTime()>& clock, Waker* waker_)
    : id(id_), spec(spec_), waker(waker_) {
  OMEGA_CHECK(spec.n >= 1 && spec.n <= 64,
              "group " << id << ": svc supports 1..64 processes, got "
                       << spec.n);
  bool any_local = false;
  for (ProcessId p = 0; p < spec.n; ++p) any_local |= spec.is_local(p);
  OMEGA_CHECK(any_local, "group " << id << ": no replica is hosted here");
  const MemoryFactory factory =
      spec.memory_factory
          ? spec.memory_factory
          : [](Layout layout, std::uint32_t n) {
              return std::unique_ptr<MemoryBackend>(
                  std::make_unique<AtomicMemory>(std::move(layout), n));
            };
  inst = make_omega(spec.algo, spec.n, factory, spec.extra_registers);
  if (clock) inst.memory->set_clock(clock);
  // Only locally-hosted replicas execute here; remote replicas keep a
  // nullptr slot so pid indexing stays uniform across deployments. Their
  // registers are refreshed by the mirror transport instead of by steps.
  execs.reserve(spec.n);
  for (std::uint32_t i = 0; i < spec.n; ++i) {
    execs.push_back(spec.is_local(i)
                        ? std::make_unique<ProcExecutor>(*inst.processes[i],
                                                         *inst.memory, tick_us)
                        : nullptr);
  }
  // The pump binds its registers before the group becomes visible to any
  // worker (registration happens after construction, under the shard lock).
  if (spec.pump) spec.pump->attach(*this);
}

ProcessId Group::agreed() const {
  // Agreement is judged over the replicas hosted HERE: in a multi-node
  // deployment each node publishes the view its own Ω replicas hold (the
  // oracle's per-process output), and cross-node consistency follows from
  // Ω's eventual agreement, not from peeking at remote executors.
  ProcessId common = kNoProcess;
  for (const auto& ex : execs) {
    if (!ex || ex->crashed()) continue;
    const ProcessId view = ex->last_leader();
    if (view == kNoProcess) return kNoProcess;  // not sampled yet
    if (common == kNoProcess) {
      common = view;
    } else if (common != view) {
      return kNoProcess;  // disagreement
    }
  }
  if (common == kNoProcess || common >= spec.n) return kNoProcess;
  // A locally-hosted leader that crashed is a stale view; a remote leader
  // is taken at the local Ω's word (its crash would surface as suspicion).
  if (execs[common] && execs[common]->crashed()) return kNoProcess;
  return common;
}

GroupRegistry::GroupRegistry(std::uint32_t num_shards, std::int64_t tick_us,
                             std::function<SimTime()> clock)
    : shards_(num_shards), tick_us_(tick_us), clock_(std::move(clock)) {
  OMEGA_CHECK(num_shards >= 1, "registry needs at least one shard");
  OMEGA_CHECK(tick_us >= 1, "tick must be >= 1us");
}

std::uint32_t GroupRegistry::shard_of(GroupId gid) const noexcept {
  // Application group ids are often sequential; spread them over shards
  // with the shared splitmix64 step (common/rng.h) as a one-shot hash.
  std::uint64_t state = gid;
  return static_cast<std::uint32_t>(splitmix64(state) % shards_.size());
}

std::shared_ptr<Group> GroupRegistry::add(GroupId gid, const GroupSpec& spec) {
  Shard& shard = shards_[shard_of(gid)];
  auto group =
      std::make_shared<Group>(gid, spec, tick_us_, clock_, &shard.waker);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto [it, inserted] = shard.groups.emplace(gid, group);
    (void)it;
    OMEGA_CHECK(inserted, "duplicate group id " << gid);
    shard.version.fetch_add(1, std::memory_order_release);
  }
  total_.fetch_add(1, std::memory_order_relaxed);
  return group;
}

bool GroupRegistry::remove(GroupId gid) {
  Shard& shard = shards_[shard_of(gid)];
  std::shared_ptr<Group> victim;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.groups.find(gid);
    if (it == shard.groups.end()) return false;
    victim = it->second;
    shard.groups.erase(it);
    shard.version.fetch_add(1, std::memory_order_release);
  }
  victim->retired.store(true, std::memory_order_release);
  total_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

std::shared_ptr<Group> GroupRegistry::find(GroupId gid) const {
  const Shard& shard = shards_[shard_of(gid)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.groups.find(gid);
  return it == shard.groups.end() ? nullptr : it->second;
}

std::size_t GroupRegistry::size() const {
  return total_.load(std::memory_order_relaxed);
}

std::uint64_t GroupRegistry::shard_version(std::uint32_t shard) const {
  OMEGA_CHECK(shard < shards_.size(), "bad shard " << shard);
  return shards_[shard].version.load(std::memory_order_acquire);
}

void GroupRegistry::snapshot_shard(
    std::uint32_t shard, std::vector<std::shared_ptr<Group>>& out) const {
  OMEGA_CHECK(shard < shards_.size(), "bad shard " << shard);
  const Shard& s = shards_[shard];
  out.clear();
  std::lock_guard<std::mutex> lock(s.mu);
  out.reserve(s.groups.size());
  for (const auto& [gid, group] : s.groups) {
    (void)gid;
    out.push_back(group);
  }
}

Waker& GroupRegistry::waker(std::uint32_t shard) {
  OMEGA_CHECK(shard < shards_.size(), "bad shard " << shard);
  return shards_[shard].waker;
}

void GroupRegistry::set_epoch_listener(EpochListener listener) {
  // Unique lock: waits for every notify holding the shared side to leave
  // its callback, making the swap a completion barrier (see header).
  std::unique_lock<std::shared_mutex> lock(listener_mu_);
  listener_ = std::move(listener);
}

void GroupRegistry::notify_epoch_change(GroupId gid,
                                        const LeaderView& view) const {
  std::shared_lock<std::shared_mutex> lock(listener_mu_);
  if (listener_) listener_(gid, view);
}

}  // namespace omega::svc
