// Waker: the wait between two sweeps of one pool worker, cut short by
// events.
//
// A worker that finds no work sleeps out its pace (SvcConfig::pace_us,
// backed off toward max_pace_us). Events that make work for it — an
// accepted append, a quorum ack that can release held acknowledgements,
// a slot its own sweep just sealed — call wake() from whatever thread
// they happen on, and the worker's next (or current) wait returns at
// once. Wakes coalesce: only the first wake() after a wait consumed the
// last one takes the lock and notifies; the rest cost one atomic load,
// so a burst of events costs the worker one wakeup.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace omega::svc {

class Waker {
 public:
  /// Ends the worker's current wait, or its next one if it is not
  /// waiting. Any thread.
  void wake() {
    if (pending_.load(std::memory_order_acquire)) return;  // coalesced
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.exchange(true, std::memory_order_acq_rel)) return;
    }
    cv_.notify_one();
  }

  /// Waits up to `us` microseconds or until wake(), and consumes the
  /// wake. Owner worker only.
  void wait_for(std::int64_t us) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::microseconds(us), [this] {
      return pending_.load(std::memory_order_relaxed);
    });
    pending_.store(false, std::memory_order_relaxed);
  }

 private:
  /// Set under mu_ (the predicate the wait reads); read without it only
  /// by wake()'s fast path.
  std::atomic<bool> pending_{false};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace omega::svc
