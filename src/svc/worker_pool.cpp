#include "svc/worker_pool.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "obs/flight_recorder.h"

#ifdef __linux__
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace omega::svc {

WorkerPool::WorkerPool(GroupRegistry& registry, const SvcConfig& cfg)
    : registry_(registry), cfg_(cfg) {
  OMEGA_CHECK(cfg_.workers >= 1, "pool needs at least one worker");
  OMEGA_CHECK(cfg_.workers == registry_.num_shards(),
              "worker count " << cfg_.workers << " != shard count "
                              << registry_.num_shards());
  OMEGA_CHECK(cfg_.ops_per_sweep >= 1, "ops_per_sweep must be >= 1");
  workers_.reserve(cfg_.workers);
  for (std::uint32_t w = 0; w < cfg_.workers; ++w) {
    workers_.push_back(
        std::make_unique<Worker>(cfg_.wheel_slots, cfg_.wheel_slot_us));
  }
  // The clock starts at construction, not at start(): now_us() must be a
  // consistent timebase even for await/stats calls that race start().
  start_time_ = std::chrono::steady_clock::now();
  steps_ctr_ = &obs::counter("svc.steps");
  sweeps_ctr_ = &obs::counter("svc.sweeps");
  fires_ctr_ = &obs::counter("svc.timer_fires");
  epochs_ctr_ = &obs::counter("svc.epoch_changes");
  group_failures_ctr_ = &obs::counter("svc.group_failures");
  sweep_hist_ = &obs::histogram("svc.sweep_ns");
  pace_gauge_id_ =
      obs::Registry::instance().register_gauge("svc.max_pace_us", [this] {
        std::int64_t deepest = 0;
        for (const auto& w : workers_) {
          deepest = std::max(deepest,
                             w->pace_us.load(std::memory_order_relaxed));
        }
        return deepest;
      });
}

WorkerPool::~WorkerPool() {
  stop();
  obs::Registry::instance().unregister_gauge(pace_gauge_id_);
}

std::int64_t WorkerPool::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_time_)
      .count();
}

void WorkerPool::start() {
  OMEGA_CHECK(!started_, "start() called twice");
  started_ = true;
  for (std::uint32_t w = 0; w < cfg_.workers; ++w) {
    workers_[w]->thread = std::thread([this, w] { run_worker(w); });
  }
}

void WorkerPool::stop() {
  if (!started_) return;
  stop_flag_.store(true, std::memory_order_release);
  // A worker may be deep in an idle wait (max_pace_us); cut it short.
  for (std::uint32_t w = 0; w < cfg_.workers; ++w) registry_.waker(w).wake();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

SvcStats WorkerPool::stats() const {
  SvcStats s;
  for (const auto& w : workers_) {
    s.steps += w->steps.load(std::memory_order_relaxed);
    s.sweeps += w->sweeps.load(std::memory_order_relaxed);
    s.timer_fires += w->fires.load(std::memory_order_relaxed);
    s.max_pace_us = std::max(s.max_pace_us,
                             w->pace_us.load(std::memory_order_relaxed));
  }
  s.groups = registry_.size();
  return s;
}

std::string WorkerPool::failure_message() const {
  std::lock_guard<std::mutex> lock(failure_mutex_);
  return failure_message_;
}

void WorkerPool::mark_failed(Group& group, const char* what) {
  if (group.failed.exchange(true, std::memory_order_acq_rel)) return;
  // The group stops being stepped for good: say so where an operator
  // looks (a node's log) and count it, or a stalled log shows nothing.
  std::fprintf(stderr, "omega svc: group %llu failed: %s\n",
               static_cast<unsigned long long>(group.id), what);
  group_failures_ctr_->add(1);
  std::lock_guard<std::mutex> lock(failure_mutex_);
  if (!failed_.exchange(true, std::memory_order_acq_rel)) {
    failure_message_ = what;
  }
}

void WorkerPool::run_worker(std::uint32_t w) {
#ifdef __linux__
  if (cfg_.worker_nice > 0) {
    // Per-thread niceness: only this worker is deprioritized, not the
    // process. Raising one's own niceness cannot fail for permissions.
    (void)setpriority(PRIO_PROCESS,
                      static_cast<id_t>(syscall(SYS_gettid)),
                      cfg_.worker_nice);
  }
#endif
  Worker& me = *workers_[w];
  Waker& waker = registry_.waker(w);
  std::vector<TimerWheel::Due> due;
  std::unordered_map<GroupId, Group*> index;
  std::uint64_t steps_batch = 0;
  std::uint64_t fires_batch = 0;
  // Adaptive pace state: the current sleep, doubling toward max_pace_us
  // across quiet sweeps and snapping back to pace_us on any harvest.
  const bool adaptive = cfg_.max_pace_us > cfg_.pace_us;
  std::int64_t pace = cfg_.pace_us;

  while (!stop_flag_.load(std::memory_order_acquire)) {
    const auto sweep_start = std::chrono::steady_clock::now();
    // Quiet until proven busy: timer fires, epoch movement, or pump
    // traffic below all count as harvest; bare heartbeat/maintenance
    // steps do not (they are exactly the spin worth backing off).
    bool harvested = false;
    // 1. Refresh the working set if the shard membership changed.
    const std::uint64_t version = registry_.shard_version(w);
    if (!me.snapshotted || version != me.seen_version) {
      me.seen_version = version;
      me.snapshotted = true;
      registry_.snapshot_shard(w, me.groups);
      index.clear();
      index.reserve(me.groups.size());
      for (const auto& g : me.groups) index.emplace(g->id, g.get());
    }

    const std::int64_t now = now_us();

    // 2. Batched monitor wakeups: one wheel advance delivers every due
    // timer of the shard; each runs a full suspicion scan and re-arms.
    due.clear();
    me.wheel.advance(now, due);
    for (const auto& d : due) {
      const auto it = index.find(d.gid);
      if (it == index.end()) continue;  // group removed since it was filed
      Group& g = *it->second;
      if (g.retired.load(std::memory_order_acquire) ||
          g.failed.load(std::memory_order_acquire)) {
        continue;
      }
      // A stale entry can name a group that was removed and re-added under
      // the same id with fewer processes; its pid may be out of range (or
      // hosted on another node under a different locality mask).
      if (d.pid >= g.spec.n || !g.execs[d.pid]) continue;
      ProcExecutor& ex = *g.execs[d.pid];
      try {
        const std::uint32_t scan_cap = 4 * g.spec.n + 8;
        const std::uint32_t ops = ex.drain_monitor(now, scan_cap);
        if (ops > 0) {
          ++fires_batch;
          steps_batch += ops;
          harvested = true;
        }
        const std::int64_t deadline = ex.poll_timer(now);
        if (deadline != kNoDeadline) me.wheel.insert(deadline, g.id, d.pid);
      } catch (const std::exception& e) {
        mark_failed(g, e.what());
      }
    }

    // 3. Cooperative heartbeat/app stepping with a per-process budget,
    // timer arming for freshly suspended monitors, and cache publication.
    for (const auto& gp : me.groups) {
      Group& g = *gp;
      if (g.retired.load(std::memory_order_acquire) ||
          g.failed.load(std::memory_order_acquire)) {
        continue;
      }
      try {
        for (std::uint32_t pid = 0; pid < g.spec.n; ++pid) {
          if (!g.execs[pid]) continue;  // hosted on another node
          ProcExecutor& ex = *g.execs[pid];
          if (ex.crashed()) continue;
          steps_batch += ex.step_sweep(now, cfg_.ops_per_sweep);
          const std::int64_t deadline = ex.poll_timer(now);
          if (deadline != kNoDeadline) me.wheel.insert(deadline, g.id, pid);
        }
        // publish() returning true means the epoch just moved: push the
        // transition through the registry's listener seam (watch hub,
        // benches) instead of making consumers poll the cache.
        if (g.cache.publish(g.agreed())) {
          const LeaderView view = g.cache.load();
          obs::trace(obs::TraceEvent::kEpochChange, g.id, view.epoch);
          epochs_ctr_->add(1);
          registry_.notify_epoch_change(g.id, view);
          harvested = true;
        }
        // Application pump (e.g. the SMR log): runs on this worker — the
        // executors' owner thread — so it may spawn/reap app tasks. Its
        // return value is the pump-traffic half of the pacing signal.
        if (g.spec.pump && g.spec.pump->on_sweep(g, now)) harvested = true;
      } catch (const std::exception& e) {
        mark_failed(g, e.what());
      }
    }

    me.steps.fetch_add(steps_batch, std::memory_order_relaxed);
    me.fires.fetch_add(fires_batch, std::memory_order_relaxed);
    // One batched add per sweep into the obs registry — the counters cost
    // the hot loop two relaxed fetch_adds, not one per step.
    if (steps_batch > 0) steps_ctr_->add(steps_batch);
    if (fires_batch > 0) fires_ctr_->add(fires_batch);
    sweeps_ctr_->add(1);
    steps_batch = 0;
    fires_batch = 0;
    me.sweeps.fetch_add(1, std::memory_order_relaxed);
    sweep_hist_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - sweep_start)
            .count()));

    if (adaptive) {
      if (harvested) {
        pace = cfg_.pace_us;
      } else {
        pace = pace > 0 ? std::min<std::int64_t>(pace * 2, cfg_.max_pace_us)
                        : std::min<std::int64_t>(64, cfg_.max_pace_us);
      }
      me.pace_us.store(pace, std::memory_order_relaxed);
    }
    if (pace > 0) waker.wait_for(pace);
  }
}

void register_health_rules(obs::HealthMonitor& hm) {
  // Leader churn: the epoch counter only moves when a group's published
  // view changes, so ANY movement in the trailing window means elections
  // are (re)running — the window during which appends bounce with
  // kNotLeader. degrade_after=1 publishes on the first post-churn tick
  // (this is the deterministic failover signal bench_e16 gates on);
  // recover_after keeps it up until the view has been stable for a full
  // second on top of the 5s window.
  hm.add_rule(obs::HealthRule{
      "leader-churn",
      [](const obs::TimeSeries& ts, std::string* reason) {
        const std::int64_t d = ts.delta("svc.epoch_changes", 5'000);
        if (d <= 0) return obs::Health::kOk;
        *reason = std::to_string(d) + " epoch change(s) in 5s";
        return obs::Health::kDegraded;
      },
      /*degrade_after=*/1,
      /*recover_after=*/4});
}

}  // namespace omega::svc
