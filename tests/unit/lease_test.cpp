// LeaseState / ReadWaiters unit coverage — the pure state machines under
// the linearizable-read path, driven with scripted clocks. The properties
// asserted here are the safety argument of the lease design: epoch bumps
// kill validity instantly, a skew bound >= ttl makes the lease
// unacquirable, and a new holder waits out the old one's maximal reach.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "smr/lease.h"

namespace omega::smr {
namespace {

constexpr std::int64_t kTtl = 1000;
constexpr std::int64_t kSkew = 100;

TEST(LeaseStateTest, ConfirmedHeartbeatExtendsByTtlMinusSkew) {
  LeaseState l(kTtl, kSkew);
  EXPECT_FALSE(l.valid(0));  // no confirmed heartbeat yet
  l.on_heartbeat_confirmed(/*t_send_us=*/500);
  EXPECT_EQ(l.lease_until_us(), 500 + kTtl - kSkew);
  EXPECT_TRUE(l.valid(500));
  EXPECT_TRUE(l.valid(500 + kTtl - kSkew - 1));
  EXPECT_FALSE(l.valid(500 + kTtl - kSkew));  // end is exclusive
}

TEST(LeaseStateTest, ExtensionIsMonotonic) {
  LeaseState l(kTtl, kSkew);
  l.on_heartbeat_confirmed(1000);
  l.on_heartbeat_confirmed(400);  // an older confirmation arriving late
  EXPECT_EQ(l.lease_until_us(), 1000 + kTtl - kSkew);  // never regresses
}

TEST(LeaseStateTest, EpochBumpDropsTheLeaseInstantly) {
  LeaseState l(kTtl, kSkew);
  l.on_heartbeat_confirmed(100);
  ASSERT_TRUE(l.valid_at_epoch(0, 200));
  // The view moves to epoch 3: the then-valid lease dies immediately,
  // long before its wall-clock expiry — and the drop reports the edge.
  EXPECT_TRUE(l.on_epoch_change(3, 200));
  EXPECT_FALSE(l.valid(200));
  EXPECT_FALSE(l.valid_at_epoch(3, 200));
  EXPECT_EQ(l.epoch(), 3u);
  // A second bump with nothing valid is not an edge.
  EXPECT_FALSE(l.on_epoch_change(4, 201));
  // Same-epoch notifications are no-ops.
  l.on_heartbeat_confirmed(300);
  EXPECT_FALSE(l.on_epoch_change(4, 301));
  EXPECT_TRUE(l.valid(301));
}

TEST(LeaseStateTest, ValidAtEpochFencesStaleEpochs) {
  LeaseState l(kTtl, kSkew);
  l.on_epoch_change(5, 0);
  l.on_heartbeat_confirmed(100);
  EXPECT_TRUE(l.valid_at_epoch(5, 150));
  EXPECT_FALSE(l.valid_at_epoch(4, 150));  // deposed holder's view
  EXPECT_FALSE(l.valid_at_epoch(6, 150));
}

TEST(LeaseStateTest, SkewAtLeastTtlIsNeverValid) {
  // skew >= ttl: every extension lands at or before its own send time,
  // so the lease is invalid by construction — the configured refusal for
  // clocks that cannot be trusted inside the ttl.
  LeaseState eq(kTtl, kTtl);
  eq.on_heartbeat_confirmed(100);
  EXPECT_FALSE(eq.valid(100));
  EXPECT_FALSE(eq.valid(99));

  LeaseState over(kTtl, kTtl + 50);
  over.on_heartbeat_confirmed(100);
  for (std::int64_t t = 0; t < 3 * kTtl; t += 10) {
    EXPECT_FALSE(over.valid(t)) << "valid at t=" << t;
  }
}

TEST(LeaseStateTest, ForeignHeartbeatImposesAcquireFloor) {
  LeaseState l(kTtl, kSkew);
  // Watch the old holder heartbeat at t=50: this node may not be valid
  // until the foreign lease has provably died (50 + ttl + skew).
  l.on_foreign_heartbeat(50);
  EXPECT_EQ(l.not_before_us(), 50 + kTtl + kSkew);
  l.on_heartbeat_confirmed(500);  // own quorum lands inside the floor
  EXPECT_FALSE(l.valid(600));     // would overlap the old holder — refused
  EXPECT_TRUE(l.valid(50 + kTtl + kSkew));  // floor passed, lease usable
  // The floor only ratchets forward.
  l.on_foreign_heartbeat(10);
  EXPECT_EQ(l.not_before_us(), 50 + kTtl + kSkew);
}

TEST(LeaseStateTest, LapsedHolderReacquiresLikeANewHolder) {
  // A holder frozen past its lease resumes under its old view and sends a
  // heartbeat the peers' mirrors ack (an ack means "applied", not "I
  // follow you"). That confirmation must not revive the lease at once:
  // a new leader may have been elected during the lapse.
  LeaseState l(kTtl, kSkew);
  l.on_heartbeat_confirmed(0);
  ASSERT_TRUE(l.valid(500));
  ASSERT_FALSE(l.valid(kTtl - kSkew));  // lapsed
  const std::int64_t resume = 5000;
  l.on_heartbeat_confirmed(resume);
  EXPECT_FALSE(l.valid(resume));
  EXPECT_FALSE(l.valid(resume + 10));
  EXPECT_EQ(l.not_before_us(), resume + kTtl + kSkew);
  // The steady ttl/4 cadence that follows makes it valid once the wait
  // is over.
  for (std::int64_t t = resume + kTtl / 4; t <= resume + kTtl; t += kTtl / 4) {
    l.on_heartbeat_confirmed(t);
  }
  EXPECT_FALSE(l.valid(resume + kTtl + kSkew - 1));
  EXPECT_TRUE(l.valid(resume + kTtl + kSkew));
  // A heartbeat sent while the lease still held extends it as before.
  const std::int64_t until = l.lease_until_us();
  l.on_heartbeat_confirmed(until - 1);
  EXPECT_EQ(l.not_before_us(), resume + kTtl + kSkew);
  EXPECT_TRUE(l.valid(until + 10));
}

TEST(LeaseStateTest, LapseSurvivesAnEpochChange) {
  // The frozen holder may also see its own view move (a new epoch that
  // still names itself) before its first post-resume heartbeat lands:
  // the epoch drop must not erase the lapse.
  LeaseState l(kTtl, kSkew);
  l.on_epoch_change(3, 0);
  l.on_heartbeat_confirmed(0);
  ASSERT_TRUE(l.valid_at_epoch(3, 500));
  const std::int64_t resume = 5000;
  l.on_epoch_change(4, resume);
  l.on_heartbeat_confirmed(resume + 10);
  EXPECT_FALSE(l.valid_at_epoch(4, resume + 20));
  EXPECT_EQ(l.not_before_us(), resume + 10 + kTtl + kSkew);
}

TEST(ReadWaitersTest, WakesInAscendingFenceOrder) {
  ReadWaiters w;
  std::vector<int> order;
  for (int fence : {7, 3, 9, 5, 3}) {
    w.park(static_cast<std::uint64_t>(fence), /*deadline_us=*/1000,
           [&order, fence](bool passed) {
             EXPECT_TRUE(passed);
             order.push_back(fence);
           });
  }
  ASSERT_EQ(w.size(), 5u);
  std::vector<ReadWaiters::Fire> fired;
  EXPECT_EQ(w.wake(/*applied=*/6, fired), 3u);  // 3, 3, 5 — not 7 or 9
  for (auto& f : fired) f(true);
  EXPECT_EQ(order, (std::vector<int>{3, 3, 5}));
  EXPECT_EQ(w.size(), 2u);

  fired.clear();
  order.clear();
  EXPECT_EQ(w.wake(/*applied=*/9, fired), 2u);
  for (auto& f : fired) f(true);
  EXPECT_EQ(order, (std::vector<int>{7, 9}));
  EXPECT_TRUE(w.empty());
}

TEST(ReadWaitersTest, WakeBelowEveryFenceIsANoOp) {
  ReadWaiters w;
  w.park(10, 1000, [](bool) { FAIL() << "woken below its fence"; });
  std::vector<ReadWaiters::Fire> fired;
  EXPECT_EQ(w.wake(9, fired), 0u);
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(w.size(), 1u);
}

TEST(ReadWaitersTest, ExpireCollectsOnlyPastDeadlines) {
  ReadWaiters w;
  int expired = 0;
  bool survivor_woke = false;
  w.park(100, /*deadline_us=*/500,
         [&expired](bool passed) {
           EXPECT_FALSE(passed);
           ++expired;
         });
  w.park(2, /*deadline_us=*/2000, [&survivor_woke](bool passed) {
    EXPECT_TRUE(passed);  // must reach us via wake, never via expire
    survivor_woke = true;
  });
  std::vector<ReadWaiters::Fire> fired;
  EXPECT_EQ(w.expire(/*now_us=*/500, fired), 1u);  // deadline is inclusive
  for (auto& f : fired) f(false);
  EXPECT_EQ(expired, 1);
  EXPECT_FALSE(survivor_woke);
  EXPECT_EQ(w.size(), 1u);
  // The heap survives the swap-remove: the survivor still wakes on fence.
  fired.clear();
  EXPECT_EQ(w.wake(2, fired), 1u);
  for (auto& f : fired) f(true);
  EXPECT_TRUE(survivor_woke);
  EXPECT_TRUE(w.empty());
}

TEST(ReadWaitersTest, ExpireThenWakeKeepsAscendingOrder) {
  // Regression shape: expire()'s swap-remove breaks heap order and must
  // re-heapify, or the next wake() pops fences out of order.
  ReadWaiters w;
  std::vector<int> order;
  auto rec = [&order](int fence) {
    return [&order, fence](bool passed) {
      if (passed) order.push_back(fence);
    };
  };
  w.park(1, /*deadline_us=*/10, rec(1));  // will expire
  w.park(8, 1000, rec(8));
  w.park(4, 1000, rec(4));
  w.park(6, 1000, rec(6));
  std::vector<ReadWaiters::Fire> fired;
  ASSERT_EQ(w.expire(/*now_us=*/10, fired), 1u);
  fired.clear();
  EXPECT_EQ(w.wake(/*applied=*/100, fired), 3u);
  for (auto& f : fired) f(true);
  EXPECT_EQ(order, (std::vector<int>{4, 6, 8}));
}

}  // namespace
}  // namespace omega::smr
