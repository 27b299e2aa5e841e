#include "rt/proc_executor.h"

namespace omega {

ProcExecutor::ProcExecutor(OmegaProcess& proc, MemoryBackend& mem,
                           std::int64_t tick_us)
    : proc_(proc), mem_(mem), tick_us_(tick_us) {
  OMEGA_CHECK(tick_us_ >= 1, "tick must be >= 1us");
  heartbeat_ = proc_.task_heartbeat();
  monitor_ = proc_.task_monitor();
  heartbeat_.start();
  monitor_.start();
}

void ProcExecutor::add_app_task(ProcTask task) {
  OMEGA_CHECK(task.valid(), "invalid app task");
  task.start();
  apps_.push_back(std::move(task));
  apps_left_.fetch_add(1, std::memory_order_acq_rel);
}

std::size_t ProcExecutor::reap_apps() {
  const std::size_t before = apps_.size();
  std::erase_if(apps_, [](const ProcTask& t) { return t.done(); });
  if (apps_.size() != before) {
    rr_ = 0;  // cursors may point past the end
    app_rr_ = 0;
  }
  return before - apps_.size();
}

RtProcessStatus ProcExecutor::status() const {
  RtProcessStatus s;
  s.last_leader = last_leader_.load(std::memory_order_acquire);
  s.leader_queries = queries_.load(std::memory_order_relaxed);
  s.leader_changes = changes_.load(std::memory_order_relaxed);
  s.last_change_us = last_change_us_.load(std::memory_order_relaxed);
  s.crashed = crash_flag_.load(std::memory_order_acquire);
  return s;
}

bool ProcExecutor::runnable(const ProcTask& task) const {
  switch (task.pending()) {
    case OpKind::kRead:
    case OpKind::kWrite:
    case OpKind::kLeaderQuery:
    case OpKind::kYield:
      return true;
    case OpKind::kWaitTimer:
    case OpKind::kNone:
    case OpKind::kDone:
      return false;
  }
  return false;
}

void ProcExecutor::exec(ProcTask& task) {
  const ProcessId pid = proc_.self();
  switch (task.pending()) {
    case OpKind::kRead:
      task.resume(mem_.read(pid, task.pending_cell()));
      return;
    case OpKind::kWrite:
      mem_.write(pid, task.pending_cell(), task.pending_value());
      task.resume(0);
      return;
    case OpKind::kLeaderQuery: {
      const ProcessId out = proc_.leader();
      queries_.fetch_add(1, std::memory_order_relaxed);
      if (out != last_leader_.load(std::memory_order_relaxed)) {
        last_leader_.store(out, std::memory_order_release);
        changes_.fetch_add(1, std::memory_order_relaxed);
        last_change_us_.store(last_now_us_, std::memory_order_relaxed);
      }
      task.resume(out);
      return;
    }
    case OpKind::kYield:
      task.resume(0);
      return;
    case OpKind::kWaitTimer:
    case OpKind::kNone:
    case OpKind::kDone:
      break;
  }
  OMEGA_CHECK(false, "task of p" << pid << " has no executable op");
}

void ProcExecutor::check_not_timed(const ProcTask& task,
                                   const char* what) const {
  OMEGA_CHECK(task.pending() != OpKind::kWaitTimer,
              what << " of p" << proc_.self()
                   << " suspended on WaitTimer (unsupported)");
}

bool ProcExecutor::step_app() {
  for (std::size_t probe = 0; probe < apps_.size(); ++probe) {
    const std::size_t i = (app_rr_ + probe) % apps_.size();
    ProcTask& task = apps_[i];
    check_not_timed(task, "app task");
    if (!runnable(task)) continue;
    exec(task);
    if (task.pending() == OpKind::kDone) {
      apps_left_.fetch_sub(1, std::memory_order_acq_rel);
    }
    app_rr_ = i + 1;
    return true;
  }
  return false;
}

std::uint32_t ProcExecutor::step_sweep(std::int64_t now_us,
                                       std::uint32_t app_ops) {
  if (crashed()) return 0;
  last_now_us_ = now_us;
  std::uint32_t ops = 0;
  // Every T2 loop of every algorithm starts at a leader query, so the
  // iteration ends when the heartbeat is back at one; the bound only
  // guards against a heartbeat that never queries.
  constexpr std::uint32_t kMaxHeartbeatOps = 1024;
  bool begun = false;
  for (std::uint32_t k = 0; k < kMaxHeartbeatOps; ++k) {
    if (runnable(monitor_)) {
      exec(monitor_);
      ++ops;
    }
    check_not_timed(heartbeat_, "heartbeat");
    if (!runnable(heartbeat_)) break;
    if (begun && heartbeat_.pending() == OpKind::kLeaderQuery) break;
    begun = true;
    exec(heartbeat_);
    ++ops;
  }
  for (std::uint32_t k = 0; k < app_ops && step_app(); ++k) ++ops;
  return ops;
}

bool ProcExecutor::step_runnable(std::int64_t now_us) {
  if (crashed()) return false;
  last_now_us_ = now_us;
  // Round-robin over [monitor, heartbeat, app tasks...], mirroring the
  // simulator's per-process task rotation.
  const std::size_t slots = 2 + apps_.size();
  for (std::size_t probe = 0; probe < slots; ++probe) {
    const std::size_t slot = (rr_ + probe) % slots;
    ProcTask& task = slot == 0   ? monitor_
                     : slot == 1 ? heartbeat_
                                 : apps_[slot - 2];
    if (slot != 0) check_not_timed(task, slot == 1 ? "heartbeat" : "app task");
    if (!runnable(task)) continue;
    exec(task);
    if (slot >= 2 && task.pending() == OpKind::kDone) {
      apps_left_.fetch_sub(1, std::memory_order_acq_rel);
    }
    rr_ = slot + 1;
    return true;
  }
  return false;
}

std::int64_t ProcExecutor::poll_timer(std::int64_t now_us) {
  if (crashed()) return kNoDeadline;
  if (monitor_.pending() != OpKind::kWaitTimer || deadline_us_ != kNoDeadline) {
    return kNoDeadline;
  }
  const std::uint64_t x = proc_.next_timeout();
  deadline_us_ = now_us + static_cast<std::int64_t>(x) * tick_us_;
  return deadline_us_;
}

bool ProcExecutor::fire_timer_if_due(std::int64_t now_us) {
  if (crashed()) return false;
  if (deadline_us_ == kNoDeadline || now_us < deadline_us_) return false;
  OMEGA_CHECK(monitor_.pending() == OpKind::kWaitTimer,
              "timer armed but monitor of p" << proc_.self()
                                             << " is not waiting");
  deadline_us_ = kNoDeadline;
  last_now_us_ = now_us;
  monitor_.resume(0);
  return true;
}

std::uint32_t ProcExecutor::drain_monitor(std::int64_t now_us,
                                          std::uint32_t max_ops) {
  if (!fire_timer_if_due(now_us)) return 0;
  std::uint32_t ops = 0;
  while (ops < max_ops && runnable(monitor_)) {
    exec(monitor_);
    ++ops;
  }
  return ops;
}

bool ProcExecutor::step(std::int64_t now_us) {
  if (crashed()) return false;
  poll_timer(now_us);
  if (fire_timer_if_due(now_us)) {
    poll_timer(now_us);
    return true;
  }
  return step_runnable(now_us);
}

}  // namespace omega
