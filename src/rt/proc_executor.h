// The Executor seam: one process's execution engine, decoupled from the
// thread that supplies its CPU.
//
// A ProcExecutor owns the suspended Ω coroutines of a single OmegaProcess
// (heartbeat, monitor, optional application tasks) together with that
// process's timer state, and knows how to execute exactly one pending
// operation at a time against the memory backend. Two drivers sit on top:
//
//   * RtDriver (rt_driver.h) — thread-per-process: each executor gets a
//     dedicated std::thread that calls step() in a loop;
//   * svc::WorkerPool (svc/worker_pool.h) — pooled stepper: a fixed set of
//     workers cooperatively steps thousands of executors (step_sweep), with
//     timer waits batched through a timer wheel (poll_timer/fire hooks).
//
// Threading contract: the stepping functions (step, step_runnable,
// poll_timer, fire_timer_if_due, drain_monitor) must only ever be called by
// one thread at a time — the executor's current owner. Observation
// (status, last_leader, ...) and crash() are safe from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/omega_iface.h"
#include "core/proc_task.h"

namespace omega {

/// Per-process externally visible state (all atomics: safe to poll from a
/// control thread while the owning driver thread runs).
struct RtProcessStatus {
  ProcessId last_leader = kNoProcess;
  std::uint64_t leader_queries = 0;
  std::uint64_t leader_changes = 0;
  std::int64_t last_change_us = -1;
  bool crashed = false;
};

/// Sentinel deadline: "no timer armed".
inline constexpr std::int64_t kNoDeadline =
    std::numeric_limits<std::int64_t>::max();

class ProcExecutor {
 public:
  /// `tick_us` — microseconds per timeout unit (the timer's T(x) = x *
  /// tick_us). The Ω tasks are created and advanced to their first
  /// suspension point here; any thread may step them afterwards.
  ProcExecutor(OmegaProcess& proc, MemoryBackend& mem, std::int64_t tick_us);

  ProcExecutor(const ProcExecutor&) = delete;
  ProcExecutor& operator=(const ProcExecutor&) = delete;

  /// Registers an application coroutine to run interleaved with the Ω
  /// tasks; its LeaderQuery ops are answered by this process's leader().
  /// Owner thread only — either before the executor is handed to a driver,
  /// or from code already running on the owning thread (e.g. a GroupPump
  /// spawning proposers during its sweep hook).
  void add_app_task(ProcTask task);
  std::uint32_t apps_left() const {
    return apps_left_.load(std::memory_order_acquire);
  }

  /// Releases completed application tasks (owner thread only) and returns
  /// how many were dropped. Long-lived executors that keep receiving tasks
  /// (the SMR pump spawns one proposer per slot) must reap, or the
  /// round-robin scan pays for every finished frame forever.
  std::size_t reap_apps();

  // --- stepping (owner thread only) -------------------------------------

  /// Executes one pending operation of one runnable task, round-robin over
  /// [monitor, heartbeat, apps...]. A task is runnable if it is suspended
  /// on a read, write, leader query or yield; timer waits are not runnable
  /// (they go through the timer API below). `now_us` timestamps leader-view
  /// changes. Returns false if the executor is crashed or nothing is
  /// runnable.
  bool step_runnable(std::int64_t now_us);

  /// One sweep of a pooled driver: exactly one T2 iteration of the
  /// heartbeat — its leader query plus the writes it issues before the
  /// next query — with the monitor taking turns beside it whenever it is
  /// runnable outside its timer (step-counted timeouts), then up to
  /// `app_ops` operations of the application tasks, round-robin. The
  /// election needs one timely PROGRESS write per monitor period, so the
  /// rest of a sweep belongs to application work. Dedicated-thread
  /// drivers keep step(), which shares every step between all tasks.
  /// Returns the number of operations executed.
  std::uint32_t step_sweep(std::int64_t now_us, std::uint32_t app_ops);

  /// If the monitor is suspended on WaitTimer and no timer is armed, arms
  /// one at `now_us + next_timeout() * tick_us` (paper line 27) and returns
  /// the deadline so pooled drivers can file it in a timer wheel. Returns
  /// kNoDeadline if nothing was armed.
  std::int64_t poll_timer(std::int64_t now_us);

  /// Fires the armed timer if `now_us` has reached its deadline: resumes
  /// the monitor (which becomes runnable at the head of its scan). Returns
  /// true iff it fired.
  bool fire_timer_if_due(std::int64_t now_us);

  /// Batched wakeup for wheel-driven drivers: fires the timer if due, then
  /// runs the monitor's whole scan to its next suspension (bounded by
  /// `max_ops`), so one wheel pop performs one complete paper-line-14..26
  /// pass. Returns the number of operations executed.
  std::uint32_t drain_monitor(std::int64_t now_us, std::uint32_t max_ops);

  /// One scheduling decision for dedicated-thread drivers: arm the timer if
  /// needed, fire it if due, otherwise execute one runnable operation.
  /// Returns false if the executor is crashed or had nothing to do.
  bool step(std::int64_t now_us);

  /// Currently armed deadline (kNoDeadline if none).
  std::int64_t timer_deadline() const noexcept { return deadline_us_; }

  // --- control / observation (any thread) -------------------------------

  /// Simulated crash: the executor stops executing steps (registers keep
  /// their last values), exactly like a crash in the model.
  void crash() { crash_flag_.store(true, std::memory_order_release); }
  bool crashed() const {
    return crash_flag_.load(std::memory_order_acquire);
  }

  /// Latest leader() output published by this process's own task stream.
  ProcessId last_leader() const {
    return last_leader_.load(std::memory_order_acquire);
  }

  RtProcessStatus status() const;

  OmegaProcess& process() noexcept { return proc_; }

 private:
  void exec(ProcTask& task);
  bool runnable(const ProcTask& task) const;
  /// Executes one op of the next runnable app task (app_rr_ order).
  bool step_app();
  /// Fails loudly if a heartbeat or app task waits on the timer: only the
  /// monitor may, and any other task would be skipped forever.
  void check_not_timed(const ProcTask& task, const char* what) const;

  OmegaProcess& proc_;
  MemoryBackend& mem_;
  const std::int64_t tick_us_;

  ProcTask heartbeat_;
  ProcTask monitor_;
  std::vector<ProcTask> apps_;
  std::size_t rr_ = 0;  ///< round-robin cursor over [monitor, heartbeat, apps]
  std::size_t app_rr_ = 0;  ///< step_sweep's round-robin cursor over apps

  std::int64_t deadline_us_ = kNoDeadline;
  std::int64_t last_now_us_ = 0;  ///< timestamp for leader-change events

  std::atomic<std::uint32_t> apps_left_{0};
  std::atomic<bool> crash_flag_{false};
  std::atomic<std::uint32_t> last_leader_{kNoProcess};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> changes_{0};
  std::atomic<std::int64_t> last_change_us_{-1};
};

}  // namespace omega
