// A multi-node log driven in one process: the log's replica 0 executes
// here, replicas 1 and 2 are "remote" — their cells change only when the
// test applies a push, exactly as the mirror transport would.
//   * ApplyGate: the leader (replica 0) may start slot s only while every
//     live follower's APPLIED cursor is above s - ring_slack.
//   * RemoteLeader: once a remote replica leads, appends this node
//     accepted but never sealed are answered kNotLeader, and follower
//     reads bound themselves only by the fence that leader published.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>

#include "registers/mirror.h"
#include "smr/smr_service.h"

namespace omega::smr {
namespace {

constexpr svc::GroupId kGid = 7;
constexpr std::uint32_t kRingSlack = 4;

class RemoteReplicaRig {
 public:
  explicit RemoteReplicaRig(std::int64_t lease_ttl_us = 0)
      : svc_(pool_config()), smr_(svc_) {
    for (auto& l : live_) l.store(true);
    SmrSpec spec;
    spec.lease_ttl_us = lease_ttl_us;
    spec.n = 3;
    spec.capacity = 256;
    spec.window = 2;
    spec.max_batch = 4;
    spec.ring_slack = kRingSlack;
    spec.local_mask = 0b001;
    spec.memory_factory = [this](Layout layout, std::uint32_t n) {
      auto mem = std::make_unique<MirroredMemory>(std::move(layout), n,
                                                  /*local_mask=*/0b001);
      mem_.store(mem.get());
      return std::unique_ptr<MemoryBackend>(std::move(mem));
    };
    spec.mirror_live = [this](ProcessId p) { return live_[p].load(); };
    smr_.add_log(kGid, spec);
    svc_.start();
  }

  ~RemoteReplicaRig() { svc_.stop(); }

  static svc::SvcConfig pool_config() {
    svc::SvcConfig cfg;
    cfg.workers = 1;
    cfg.tick_us = 20000;
    cfg.ops_per_sweep = 64;
    cfg.pace_us = 200;
    return cfg;
  }

  svc::MultiGroupLeaderService& svc() { return svc_; }

  /// Submits one append; the future resolves at its completion.
  std::shared_future<AppendOutcome> append(std::uint64_t seq) {
    auto done = std::make_shared<std::promise<AppendOutcome>>();
    std::shared_future<AppendOutcome> f = done->get_future().share();
    smr_.append(kGid, /*client=*/1, seq, 100 + seq,
                [done](AppendOutcome oc, std::uint64_t) {
                  done->set_value(oc);
                });
    return f;
  }

  /// A follower's pump reached `slot`: its APPLIED cell arrives by push.
  void follower_applied(ProcessId p, std::uint64_t slot) {
    push("APPLIED", p, slot);
  }

  void set_live(ProcessId p, bool live) { live_[p].store(live); }

  /// A point read of `key` at this node, as a net IO thread issues it.
  LogGroup::ReadMode read(std::uint64_t key, std::uint64_t min_index,
                          svc::LeaderView& view) {
    LogGroup::ReadAnswer answer;
    LogGroup::ReadMode mode{};
    EXPECT_TRUE(smr_.read_point(kGid, key, min_index, view, answer, mode,
                                [](bool, const LogGroup::ReadAnswer&) {}));
    return mode;
  }

  std::uint64_t peek(const char* name, std::uint32_t i) {
    MirroredMemory& mem = *mem_.load();
    GroupId g = 0;
    EXPECT_TRUE(mem.layout().find_group(name, g));
    return mem.peek(mem.layout().cell(g, i));
  }

  /// Stores `v` into remote replica `row`'s cell `col` of group `name`,
  /// as that replica's push would.
  void push(const char* name, std::uint32_t row, std::uint32_t col,
            std::uint64_t v) {
    MirroredMemory& mem = *mem_.load();
    GroupId g = 0;
    ASSERT_TRUE(mem.layout().find_group(name, g));
    mem.apply_push(mem.layout().cell(g, row, col), v);
  }
  void push(const char* name, std::uint32_t i, std::uint64_t v) {
    MirroredMemory& mem = *mem_.load();
    GroupId g = 0;
    ASSERT_TRUE(mem.layout().find_group(name, g));
    mem.apply_push(mem.layout().cell(g, i), v);
  }

 private:
  svc::MultiGroupLeaderService svc_;
  SmrService smr_;
  std::atomic<MirroredMemory*> mem_{nullptr};
  std::array<std::atomic<bool>, 3> live_;
};

bool committed_within(const std::shared_future<AppendOutcome>& f, int ms) {
  return f.wait_for(std::chrono::milliseconds(ms)) ==
             std::future_status::ready &&
         f.get() == AppendOutcome::kCommitted;
}

TEST(ApplyGate, HeldCursorStopsSealingAtRingSlackAndReleaseResumes) {
  RemoteReplicaRig rig;
  ASSERT_EQ(rig.svc().await_leader(kGid, 30000000), 0u);
  // Sequential appends: one slot each. Both followers sit at slot 0, so
  // slots 0 .. ring_slack-1 may be started and no further.
  std::uint64_t seq = 1;
  for (; seq <= kRingSlack; ++seq) {
    ASSERT_TRUE(committed_within(rig.append(seq), 5000)) << "append " << seq;
  }
  const auto held = rig.append(seq++);
  EXPECT_FALSE(committed_within(held, 300))
      << "sealed past a live follower's reach";
  // One follower catching up is not enough: the other still holds it.
  rig.follower_applied(1, kRingSlack);
  EXPECT_FALSE(committed_within(held, 200));
  rig.follower_applied(2, kRingSlack);
  EXPECT_TRUE(committed_within(held, 5000)) << "release did not resume";

  // Slots up to 2 * ring_slack - 1 are within reach now.
  for (; seq <= 2 * kRingSlack; ++seq) {
    ASSERT_TRUE(committed_within(rig.append(seq), 5000)) << "append " << seq;
  }
  const auto held_again = rig.append(seq++);
  EXPECT_FALSE(committed_within(held_again, 300));
  // A follower that stops streaming is not waited for.
  rig.follower_applied(1, 2 * kRingSlack);
  rig.set_live(2, false);
  EXPECT_TRUE(committed_within(held_again, 5000))
      << "a follower that is not live held sealing back";
  EXPECT_FALSE(rig.svc().failed()) << rig.svc().failure_message();
}

TEST(RemoteLeader, QueuedAppendsAnswerNotLeaderOnceARemoteReplicaLeads) {
  RemoteReplicaRig rig;
  ASSERT_EQ(rig.svc().await_leader(kGid, 30000000), 0u);
  // Fill the apply reach so the next appends stay queued here.
  std::uint64_t seq = 1;
  for (; seq <= kRingSlack; ++seq) {
    ASSERT_TRUE(committed_within(rig.append(seq), 5000)) << "append " << seq;
  }
  const auto queued_a = rig.append(seq++);
  const auto queued_b = rig.append(seq++);
  ASSERT_FALSE(committed_within(queued_a, 200));
  // Replicas 1 and 2 suspect replica 0 heavily, and replica 1 heartbeats:
  // replica 0's own Ω output moves to replica 1, a remote replica.
  rig.push("SUSPICIONS", 1, 0, 1000);
  rig.push("SUSPICIONS", 2, 0, 1000);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (std::uint64_t beat = 1;
       queued_b.wait_for(std::chrono::milliseconds(1)) !=
       std::future_status::ready;
       ++beat) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "queued appends were never answered";
    rig.push("PROGRESS", 1, beat);
  }
  ASSERT_EQ(queued_a.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_EQ(queued_a.get(), AppendOutcome::kNotLeader);
  EXPECT_EQ(queued_b.get(), AppendOutcome::kNotLeader);
  EXPECT_EQ(rig.svc().leader(kGid).leader, 1u);
  EXPECT_FALSE(rig.svc().failed()) << rig.svc().failure_message();
}

TEST(RemoteLeader, FollowerReadsOnlyAgainstTheFollowedLeadersFence) {
  RemoteReplicaRig rig(/*lease_ttl_us=*/400000);
  ASSERT_EQ(rig.svc().await_leader(kGid, 30000000), 0u);
  ASSERT_TRUE(committed_within(rig.append(1), 5000));
  // The LEASE fence cell: publishing leader + 1 above bit 48, its
  // applied length below.
  constexpr std::uint32_t kFence = 1;
  const auto fence = [](ProcessId leader, std::uint64_t applied) {
    return (std::uint64_t{leader} + 1) << 48 | applied;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (rig.peek("LEASE", kFence) != fence(0, 1)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "leader 0 never published its fence";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Replica 1 takes over and keeps heartbeating; this node follows it.
  rig.push("SUSPICIONS", 1, 0, 1000);
  rig.push("SUSPICIONS", 2, 0, 1000);
  std::atomic<bool> stop{false};
  std::thread beats([&rig, &stop] {
    for (std::uint64_t beat = 1; !stop.load(); ++beat) {
      rig.push("PROGRESS", 1, beat);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (rig.svc().leader(kGid).leader != 1) {
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto read = [&rig](std::uint64_t fence_word) {
    rig.push("LEASE", kFence, fence_word);
    svc::LeaderView view;
    const LogGroup::ReadMode mode = rig.read(/*key=*/101, 0, view);
    EXPECT_EQ(view.leader, 1u);
    return mode;
  };
  const bool follows_1 = rig.svc().leader(kGid).leader == 1;
  if (follows_1) {
    // This node's own fence from when it led, not yet overwritten.
    EXPECT_EQ(read(fence(0, 1)), LogGroup::ReadMode::kRefused);
    // A fence from a replica this node does not follow.
    EXPECT_EQ(read(fence(2, 1)), LogGroup::ReadMode::kRefused);
    // The followed leader's fence: at the local apply, or ahead of it.
    EXPECT_EQ(read(fence(1, 1)), LogGroup::ReadMode::kIndex);
    EXPECT_EQ(read(fence(1, 5)), LogGroup::ReadMode::kDefer);
    // No leader has published a fence yet.
    EXPECT_EQ(read(0), LogGroup::ReadMode::kIndex);
  }
  stop.store(true);
  beats.join();
  EXPECT_TRUE(follows_1) << "replica 1 never led";
  EXPECT_FALSE(rig.svc().failed()) << rig.svc().failure_message();
}

}  // namespace
}  // namespace omega::smr
