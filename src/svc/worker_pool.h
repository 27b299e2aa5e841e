// The pooled implementation of the Executor seam: N workers cooperatively
// step every election group of their shard. Each worker owns one shard of
// the GroupRegistry (shard = worker index), a private timer wheel, and a
// snapshot of its shard's groups that it refreshes only when the shard's
// version moves.
//
// One sweep of a worker:
//   1. refresh the working set if the shard changed (add/remove);
//   2. advance the timer wheel and deliver the whole batch of due monitor
//      wakeups — each wakeup runs one complete suspicion scan
//      (ProcExecutor::drain_monitor) and re-files the next timeout;
//   3. round-robin the shard's groups, giving every live process one
//      heartbeat iteration and a bounded budget of app operations
//      (ProcExecutor::step_sweep), arming any timer the monitor
//      re-suspended on, and republishing the group's cached leader view —
//      pushing the transition through the registry's epoch listener
//      whenever the published view (and hence the epoch) actually moved;
//   4. wait on the shard's Waker until the next sweep is due (the pace)
//      or an event wakes it (Group::wake), whichever comes first.
//
// Operations of different groups never touch shared state (each group has
// its own registers), so workers need no locks on the stepping path.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/health.h"
#include "obs/metrics.h"
#include "svc/group_registry.h"
#include "svc/timer_wheel.h"

namespace omega::svc {

/// Registers the election layer's health rules ("leader-churn": any epoch
/// movement in the trailing window marks the node degraded until elections
/// settle). Called by the serving layer when it builds its health engine.
void register_health_rules(obs::HealthMonitor& hm);

class WorkerPool {
 public:
  WorkerPool(GroupRegistry& registry, const SvcConfig& cfg);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Launches the workers. May be called once.
  void start();
  /// Stops and joins all workers. Idempotent.
  void stop();

  /// Microseconds since start().
  std::int64_t now_us() const;

  SvcStats stats() const;

  /// True iff any group's task threw (model violation); the first message
  /// is kept for diagnosis. The failed group stops being stepped; other
  /// groups are unaffected. Each group's failure is also printed to
  /// stderr once and counted in svc.group_failures.
  bool failed() const noexcept {
    return failed_.load(std::memory_order_acquire);
  }
  std::string failure_message() const;

 private:
  struct Worker {
    Worker(std::uint32_t slots, std::int64_t slot_us)
        : wheel(slots, slot_us) {}
    std::thread thread;
    TimerWheel wheel;
    std::vector<std::shared_ptr<Group>> groups;  ///< shard working set
    std::uint64_t seen_version = 0;
    bool snapshotted = false;
    std::atomic<std::uint64_t> steps{0};
    std::atomic<std::uint64_t> sweeps{0};
    std::atomic<std::uint64_t> fires{0};
    /// Current adaptive wait (== cfg.pace_us unless backed off).
    std::atomic<std::int64_t> pace_us{0};
  };

  void run_worker(std::uint32_t w);
  void mark_failed(Group& group, const char* what);

  GroupRegistry& registry_;
  SvcConfig cfg_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_flag_{false};
  std::atomic<bool> failed_{false};
  mutable std::mutex failure_mutex_;
  std::string failure_message_;
  bool started_ = false;
  std::chrono::steady_clock::time_point start_time_{};

  /// obs instruments, resolved once so the sweep loop never touches the
  /// registry lock. Counters are bumped with per-sweep batch totals.
  obs::Counter* steps_ctr_ = nullptr;    ///< svc.steps
  obs::Counter* sweeps_ctr_ = nullptr;   ///< svc.sweeps
  obs::Counter* fires_ctr_ = nullptr;    ///< svc.timer_fires
  obs::Counter* epochs_ctr_ = nullptr;   ///< svc.epoch_changes
  obs::Counter* group_failures_ctr_ = nullptr;  ///< svc.group_failures
  obs::Histogram* sweep_hist_ = nullptr;  ///< svc.sweep_ns
  std::uint64_t pace_gauge_id_ = 0;       ///< svc.max_pace_us
};

}  // namespace omega::svc
