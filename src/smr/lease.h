// Pure lease/read-wait state machines of the linearizable-read path
// (no clocks, no threads — LogGroup drives them with its own time
// source, unit tests with a scripted one).
//
// LeaseState — the epoch-fenced leader lease. A holder extends the lease
// by sending heartbeats through the mirror push stream and counting a
// quorum of acks: a heartbeat *sent* at t and quorum-confirmed extends
// validity to t + ttl - skew (the skew bound pays for the peers' clocks
// drifting while they promise not to grant a competing lease). Validity
// is fenced three ways:
//   * epoch — any change of the group's agreed view drops the lease
//     instantly (before a competing leader can acquire one at the new
//     epoch);
//   * ack staleness — a deposed or partitioned holder stops getting
//     quorum confirmations, so lease_until stops advancing and the lease
//     times out within ttl;
//   * acquire floor — a NEW holder must wait out the previous holder's
//     maximal validity (last observed foreign heartbeat + ttl + skew)
//     before its own lease can become valid, so two holders never
//     overlap even across the election window. A holder whose lease
//     lapsed counts as new: its next confirmed heartbeat starts the same
//     ttl + skew wait.
// A skew bound >= ttl makes every extension non-positive: the lease can
// never become valid (the refusal the config demands — better no fast
// path than a clock-dependent unsafe one).
//
// ReadWaiters — parked follower read-index waiters. A follower read that
// arrives with a fence above the local applied index parks here and is
// woken in ASCENDING fence order once apply progress covers it (so
// responses fire oldest-fence-first), or expired wholesale at its
// deadline. Not thread-safe: the owner wraps it in its own lock.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

namespace omega::smr {

class LeaseState {
 public:
  LeaseState(std::int64_t ttl_us, std::int64_t skew_us)
      : ttl_us_(ttl_us), skew_us_(skew_us) {}

  std::int64_t ttl_us() const noexcept { return ttl_us_; }
  std::int64_t skew_us() const noexcept { return skew_us_; }

  /// The fenced epoch changed. Drops any current validity; returns true
  /// if a then-valid lease was dropped (the obs counter's edge).
  bool on_epoch_change(std::uint64_t epoch, std::int64_t now_us) {
    if (epoch == epoch_) return false;
    epoch_ = epoch;
    const bool was_valid = valid(now_us);
    lease_until_us_ = 0;
    return was_valid;
  }

  /// A heartbeat sent at `t_send_us` was quorum-confirmed. Extends the
  /// lease to t_send + ttl - skew. With skew >= ttl the extension would
  /// land at or before its own send time — an interval that can only be
  /// "valid" in the past — so it is refused outright and the lease stays
  /// invalid at every clock value, not just values past t_send.
  ///
  /// A heartbeat sent at or after the end of every lease this node held,
  /// at any epoch, comes from a holder that lapsed — paused or cut off,
  /// and perhaps acting on a view that is no longer true. Peers ack
  /// pushes, not leadership, so the confirmation proves nothing about who
  /// leads now: the lapsed holder stays invalid until ttl + skew after
  /// that send, the wait a new holder's acquire floor imposes.
  void on_heartbeat_confirmed(std::int64_t t_send_us) {
    if (skew_us_ >= ttl_us_) return;
    if (held_until_us_ != 0 && t_send_us >= held_until_us_) {
      not_before_us_ =
          std::max(not_before_us_, t_send_us + ttl_us_ + skew_us_);
    }
    lease_until_us_ = std::max(lease_until_us_, t_send_us + ttl_us_ - skew_us_);
    held_until_us_ = std::max(held_until_us_, lease_until_us_);
  }

  /// A foreign holder's heartbeat was observed to change at `now_us`:
  /// this node may not hold a valid lease until the foreign one has
  /// provably expired (its maximal reach plus the skew bound).
  void on_foreign_heartbeat(std::int64_t now_us) {
    not_before_us_ = std::max(not_before_us_, now_us + ttl_us_ + skew_us_);
  }

  /// Epoch-fenced, time-bounded validity at `now_us` for epoch `epoch`.
  bool valid_at_epoch(std::uint64_t epoch, std::int64_t now_us) const {
    return epoch == epoch_ && valid(now_us);
  }

  bool valid(std::int64_t now_us) const {
    return now_us >= not_before_us_ && now_us < lease_until_us_;
  }

  std::uint64_t epoch() const noexcept { return epoch_; }
  std::int64_t lease_until_us() const noexcept { return lease_until_us_; }
  std::int64_t not_before_us() const noexcept { return not_before_us_; }

 private:
  std::int64_t ttl_us_;
  std::int64_t skew_us_;
  std::uint64_t epoch_ = 0;
  std::int64_t lease_until_us_ = 0;  ///< 0 = no confirmed heartbeat yet
  /// End of the latest lease at any epoch (epoch drops leave it alone).
  std::int64_t held_until_us_ = 0;
  std::int64_t not_before_us_ = 0;   ///< foreign-holder acquire floor
};

class ReadWaiters {
 public:
  /// `passed` tells the waiter whether its fence was reached (true) or
  /// its deadline expired first (false).
  using Fire = std::function<void(bool passed)>;

  void park(std::uint64_t fence, std::int64_t deadline_us, Fire fire) {
    waiters_.push_back(Waiter{fence, deadline_us, std::move(fire)});
    std::push_heap(waiters_.begin(), waiters_.end(), ByFenceDesc{});
  }

  /// Collects (ascending fence order) every waiter whose fence is covered
  /// by `applied`. The caller invokes the collected closures with `true`
  /// outside its lock.
  std::size_t wake(std::uint64_t applied, std::vector<Fire>& out) {
    std::size_t n = 0;
    while (!waiters_.empty() && waiters_.front().fence <= applied) {
      std::pop_heap(waiters_.begin(), waiters_.end(), ByFenceDesc{});
      out.push_back(std::move(waiters_.back().fire));
      waiters_.pop_back();
      ++n;
    }
    return n;
  }

  /// Collects every waiter whose deadline has passed (fence order is not
  /// meaningful for expiries). The caller invokes them with `false`.
  std::size_t expire(std::int64_t now_us, std::vector<Fire>& out) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < waiters_.size();) {
      if (waiters_[i].deadline_us <= now_us) {
        out.push_back(std::move(waiters_[i].fire));
        waiters_[i] = std::move(waiters_.back());
        waiters_.pop_back();
        ++n;
      } else {
        ++i;
      }
    }
    if (n > 0) std::make_heap(waiters_.begin(), waiters_.end(), ByFenceDesc{});
    return n;
  }

  std::size_t size() const noexcept { return waiters_.size(); }
  bool empty() const noexcept { return waiters_.empty(); }

 private:
  struct Waiter {
    std::uint64_t fence = 0;
    std::int64_t deadline_us = 0;
    Fire fire;
  };
  /// Min-heap on fence (std heap helpers build max-heaps, so the
  /// comparator is reversed).
  struct ByFenceDesc {
    bool operator()(const Waiter& a, const Waiter& b) const {
      return a.fence > b.fence;
    }
  };
  std::vector<Waiter> waiters_;
};

}  // namespace omega::smr
