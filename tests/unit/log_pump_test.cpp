// LogPump batching edges: FIFO expansion of batched slots, short batches
// when the supplier runs dry mid-batch, window-full backpressure, the
// descriptor/checksum codec, B=1 equivalence with the legacy
// single-command pump (same commits, same memory trace), what happens to
// a batch displaced by a competing sealer, and an idle leader adopting a
// batch another sealer left in flight.
#include "consensus/log_pump.h"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "sim/scenario.h"

namespace omega {
namespace {

/// Scripted supplier: hands out a fixed command list and records how many
/// commands each pull() granted.
class VecSource final : public BatchSource {
 public:
  explicit VecSource(std::vector<std::uint64_t> cmds)
      : q_(cmds.begin(), cmds.end()) {}

  std::uint32_t pull(std::uint32_t max, std::vector<std::uint64_t>& out,
                     std::uint64_t& ticket,
                     std::vector<std::uint64_t>& traces) override {
    ticket = ++next_ticket_;
    std::uint32_t granted = 0;
    while (granted < max && !q_.empty()) {
      out.push_back(q_.front());
      traces.push_back(q_.front() + kTraceBias);
      q_.pop_front();
      ++granted;
    }
    if (granted > 0) grants_.push_back(granted);
    return granted;
  }

  /// Scripted trace id per command: command + kTraceBias, so tests can
  /// assert the id survives the spill ring alongside its command.
  static constexpr std::uint64_t kTraceBias = 0x7700000000000000ULL;

  std::size_t left() const { return q_.size(); }
  const std::vector<std::uint32_t>& grants() const { return grants_; }

 private:
  std::deque<std::uint64_t> q_;
  std::vector<std::uint32_t> grants_;
  std::uint64_t next_ticket_ = 0;
};

/// One sim-backed pump: scenario, log, optional batch ring, pump.
struct Rig {
  Rig(std::uint32_t n, std::uint32_t capacity, std::uint32_t window,
      std::uint32_t max_batch, std::uint64_t seed = 5)
      : log(n, capacity) {
    ScenarioConfig cfg;
    cfg.n = n;
    cfg.world = World::kAwb;
    cfg.seed = seed;
    if (max_batch > 1) buffer.emplace("T", /*banks=*/1, window, max_batch);
    cfg.extra_registers = [this](LayoutBuilder& b) {
      log.declare(b);
      if (buffer.has_value()) buffer->declare(b);
    };
    driver = make_scenario(cfg);
    log.bind(driver->memory().layout());
    if (buffer.has_value()) buffer->bind(driver->memory().layout());
    host = std::make_unique<SimPumpHost>(*driver);
    pump = std::make_unique<LogPump>(
        log, *host, window,
        LogPump::BatchPolicy{max_batch,
                             buffer.has_value() ? &*buffer : nullptr});
  }

  /// Ticks and runs the simulation until the pump stops making progress
  /// (source dry, nothing in flight) or `deadline` passes.
  std::vector<LogPump::Commit> drain(BatchSource& src,
                                     SimTime deadline = 5000000) {
    std::vector<LogPump::Commit> commits;
    for (;;) {
      const std::uint32_t started_before = pump->started();
      pump->tick(src, commits);
      if (pump->in_flight() == 0 && pump->started() == started_before) break;
      if (driver->now() >= deadline) break;
      driver->run_for(2000);
    }
    return commits;
  }

  ReplicatedLog log;
  std::optional<BatchBuffer> buffer;
  std::unique_ptr<SimDriver> driver;
  std::unique_ptr<SimPumpHost> host;
  std::unique_ptr<LogPump> pump;
};

std::vector<std::uint64_t> values_of(
    const std::vector<LogPump::Commit>& commits) {
  std::vector<std::uint64_t> v;
  for (const auto& c : commits) v.push_back(c.value);
  return v;
}

TEST(LogPump, BatchedSlotsExpandToFifoCommits) {
  Rig rig(/*n=*/3, /*capacity=*/16, /*window=*/4, /*max_batch=*/4);
  std::vector<std::uint64_t> cmds;
  for (std::uint64_t i = 0; i < 10; ++i) cmds.push_back(101 + i);
  VecSource src(cmds);
  const auto commits = rig.drain(src);
  // Everything placed, in submission order, across ceil(10/4) = 3 slots:
  // batching multiplies commands per slot without reordering them.
  EXPECT_EQ(values_of(commits), cmds);
  EXPECT_EQ(rig.pump->started(), 3u);
  EXPECT_EQ(rig.pump->committed(), 3u);
  // Slot numbers are nondecreasing and contiguous batches share a slot.
  for (std::size_t i = 1; i < commits.size(); ++i) {
    EXPECT_GE(commits[i].slot, commits[i - 1].slot);
  }
}

TEST(LogPump, EmptySupplierMidBatchSealsShort) {
  Rig rig(3, 16, /*window=*/2, /*max_batch=*/8);
  VecSource src({7, 8, 9});
  const auto commits = rig.drain(src);
  // A supplier that runs dry mid-batch seals what it has: one slot, three
  // commands, no waiting for a full batch (adaptive flush).
  EXPECT_EQ(values_of(commits), (std::vector<std::uint64_t>{7, 8, 9}));
  EXPECT_EQ(rig.pump->started(), 1u);
  ASSERT_EQ(src.grants().size(), 1u);
  EXPECT_EQ(src.grants()[0], 3u);
}

TEST(LogPump, WindowFullIsBackpressureNotLoss) {
  Rig rig(3, 16, /*window=*/1, /*max_batch=*/2);
  std::vector<std::uint64_t> cmds{21, 22, 23, 24, 25, 26};
  VecSource src(cmds);
  std::vector<LogPump::Commit> first_tick;
  rig.pump->tick(src, first_tick);
  // One slot in flight: exactly one batch was pulled; the rest stays with
  // the supplier until the window frees.
  EXPECT_EQ(rig.pump->in_flight(), 1u);
  EXPECT_EQ(src.left(), 4u);
  const auto rest = rig.drain(src);
  std::vector<std::uint64_t> all = values_of(first_tick);
  for (auto v : values_of(rest)) all.push_back(v);
  EXPECT_EQ(all, cmds);
  EXPECT_EQ(rig.pump->started(), 3u) << "two commands per slot";
}

TEST(LogPump, DescriptorCodecRoundTripsAndValidates) {
  for (std::uint32_t count : {1u, 2u, 64u, 127u}) {
    for (ProcessId sealer : {ProcessId{0}, ProcessId{5}, ProcessId{63}}) {
      const std::uint64_t d = encode_batch_descriptor(count, sealer);
      EXPECT_GE(d, 1u);
      EXPECT_LT(d, kLogNoOp) << "descriptors must stay proposable";
      std::uint32_t count_out = 0;
      ProcessId sealer_out = kNoProcess;
      decode_batch_descriptor(d, count_out, sealer_out);
      EXPECT_EQ(count_out, count);
      EXPECT_EQ(sealer_out, sealer);
    }
  }
  std::uint32_t c = 0;
  ProcessId s = 0;
  EXPECT_THROW(decode_batch_descriptor(0, c, s), std::exception)
      << "count 0 is malformed";
  EXPECT_THROW(encode_batch_descriptor(128, 0), std::exception)
      << "count above kMaxBatchCommands must be rejected";
  EXPECT_THROW(encode_batch_descriptor(1, 64), std::exception)
      << "sealer beyond the 6-bit field must be rejected";

  // The checksum is order-sensitive: a reordered buffer is caught.
  const std::uint64_t a[2] = {11, 12};
  const std::uint64_t b[2] = {12, 11};
  EXPECT_NE(batch_checksum(a, 2), batch_checksum(b, 2));

  // Seal cells: slot stamp + checksum round-trip; 0 means "never sealed".
  EXPECT_EQ(seal_slot(0), kNoSealedSlot);
  const std::uint64_t seal = pack_seal(/*slot=*/7, /*checksum=*/0xDEADBEEF);
  EXPECT_EQ(seal_slot(seal), 7u);
  EXPECT_EQ(seal_checksum(seal), 0xDEADBEEFu);
}

TEST(LogPump, BatchOfOneEqualsLegacySingleCommandPump) {
  // Twin scenarios with identical seeds: one pumped through the legacy
  // single-command supplier, one through a BatchSource with max_batch=1.
  // Equivalence must hold down to the memory image — same slots, same
  // decisions, same register traffic (no batch ring is even declared).
  const std::vector<std::uint64_t> cmds{301, 302, 303, 304, 305};
  Rig legacy(3, 16, /*window=*/2, /*max_batch=*/1, /*seed=*/9);
  Rig batched(3, 16, /*window=*/2, /*max_batch=*/1, /*seed=*/9);

  std::size_t next = 0;
  const auto supply = [&]() -> std::uint64_t {
    return next < cmds.size() ? cmds[next++] : kNoCommand;
  };
  std::vector<LogPump::Commit> legacy_commits;
  for (;;) {
    const std::uint32_t before = legacy.pump->started();
    legacy.pump->tick(supply, legacy_commits);
    if (legacy.pump->in_flight() == 0 && legacy.pump->started() == before) {
      break;
    }
    legacy.driver->run_for(2000);
  }

  VecSource src(cmds);
  const auto batched_commits = batched.drain(src);

  ASSERT_EQ(legacy_commits.size(), batched_commits.size());
  for (std::size_t i = 0; i < legacy_commits.size(); ++i) {
    EXPECT_EQ(legacy_commits[i].slot, batched_commits[i].slot);
    EXPECT_EQ(legacy_commits[i].value, batched_commits[i].value);
  }
  // Byte-for-byte: the full register image of both runs is identical.
  const auto& ml = legacy.driver->memory();
  const auto& mb = batched.driver->memory();
  ASSERT_EQ(ml.layout().size(), mb.layout().size());
  for (std::uint32_t i = 0; i < ml.layout().size(); ++i) {
    ASSERT_EQ(ml.peek(Cell{i}), mb.peek(Cell{i}))
        << "memory diverges at " << ml.layout().cell_name(Cell{i});
  }
}

TEST(LogPump, SingleCommandTickRejectsBatchedPump) {
  Rig rig(3, 16, /*window=*/2, /*max_batch=*/4);
  std::vector<LogPump::Commit> commits;
  EXPECT_THROW(rig.pump->tick([] { return kNoCommand; }, commits),
               std::exception);
}

/// A sealer's view of the sim: only replica `mine` runs its proposers,
/// as on one node of a multi-process deployment.
class OneReplicaHost final : public PumpHost {
 public:
  OneReplicaHost(SimDriver& driver, ProcessId mine)
      : sim_(driver), mine_(mine) {}
  std::uint32_t n() const override { return sim_.n(); }
  bool live(ProcessId i) const override { return i == mine_ && sim_.live(i); }
  void spawn(ProcessId i, ProcTask task) override {
    sim_.spawn(i, std::move(task));
  }
  MemoryBackend& memory() override { return sim_.memory(); }

 private:
  SimPumpHost sim_;
  ProcessId mine_;
};

TEST(LogPump, DisplacedBatchWaitsForTheSealLimitAndCanBeDropped) {
  // Two sealers race for slot 0 (the failover window): one wins, the
  // other's batch is displaced. A displaced batch is re-proposed only
  // below the seal limit, and a node that no longer leads drops it.
  constexpr std::uint32_t kN = 2;
  ReplicatedLog log(kN, /*capacity=*/8);
  BatchBuffer buffer("T", /*banks=*/kN, /*rows=*/2, /*cols=*/4);
  ScenarioConfig cfg;
  cfg.n = kN;
  cfg.world = World::kAwb;
  cfg.seed = 3;
  cfg.extra_registers = [&](LayoutBuilder& b) {
    log.declare(b);
    buffer.declare(b);
  };
  auto driver = make_scenario(cfg);
  log.bind(driver->memory().layout());
  buffer.bind(driver->memory().layout());
  OneReplicaHost host0(*driver, 0);
  OneReplicaHost host1(*driver, 1);
  LogPump p0(log, host0, /*window=*/1, LogPump::BatchPolicy{4, &buffer, 0});
  LogPump p1(log, host1, /*window=*/1, LogPump::BatchPolicy{4, &buffer, 1});
  VecSource s0({11, 12});
  VecSource s1({21});
  std::vector<LogPump::Commit> c0;
  std::vector<LogPump::Commit> c1;
  p0.tick(s0, c0);
  p1.tick(s1, c1);
  for (int i = 0; i < 1000 && (p0.committed() == 0 || p1.committed() == 0);
       ++i) {
    driver->run_for(2000);
    p0.tick(s0, c0, false, /*seal_limit=*/1);
    p1.tick(s1, c1, false, /*seal_limit=*/1);
  }
  ASSERT_EQ(p0.committed(), 1u);
  ASSERT_EQ(p1.committed(), 1u);
  LogPump& loser = p0.resubmit_pending() == 1 ? p0 : p1;
  VecSource& loser_src = &loser == &p0 ? s0 : s1;
  std::vector<LogPump::Commit>& loser_commits = &loser == &p0 ? c0 : c1;
  ASSERT_EQ(loser.resubmit_pending(), 1u) << "one sealer must lose slot 0";
  for (const auto& c : loser_commits) EXPECT_FALSE(c.local);

  // Held at the limit (a node that does not lead passes 0): no re-proposal.
  loser.tick(loser_src, loser_commits, false, /*seal_limit=*/0);
  EXPECT_EQ(loser.started(), 1u);
  EXPECT_EQ(loser.resubmit_pending(), 1u);

  std::vector<std::uint64_t> tickets;
  loser.drop_resubmits(tickets);
  ASSERT_EQ(tickets.size(), 1u);
  EXPECT_EQ(tickets[0], 1u) << "the displaced batch's supplier ticket";
  EXPECT_EQ(loser.resubmit_pending(), 0u);
  loser.tick(loser_src, loser_commits);
  EXPECT_EQ(loser.started(), 1u) << "a dropped batch is never re-proposed";
}

TEST(LogPump, IdleLeaderAdoptsAnotherSealersUndecidedSlot) {
  // Replica 0's node sealed slot 0 and then stopped (its proposer never
  // runs): the leader (replica 1) has nothing of its own to seal, so it
  // proposes the sealed batch itself, and the sealer still acknowledges
  // its own commands when the slot decides.
  constexpr std::uint32_t kN = 2;
  ReplicatedLog log(kN, /*capacity=*/8);
  BatchBuffer buffer("T", /*banks=*/kN, /*rows=*/2, /*cols=*/4);
  ScenarioConfig cfg;
  cfg.n = kN;
  cfg.world = World::kAwb;
  cfg.timely = 1;
  cfg.seed = 3;
  cfg.extra_registers = [&](LayoutBuilder& b) {
    log.declare(b);
    buffer.declare(b);
  };
  auto driver = make_scenario(cfg);
  driver->plan().pause_forever(0, 0);
  log.bind(driver->memory().layout());
  buffer.bind(driver->memory().layout());
  OneReplicaHost host0(*driver, 0);
  OneReplicaHost host1(*driver, 1);
  LogPump p0(log, host0, /*window=*/2, LogPump::BatchPolicy{4, &buffer, 0});
  LogPump p1(log, host1, /*window=*/2, LogPump::BatchPolicy{4, &buffer, 1});
  VecSource s0({11, 12});
  VecSource none({});
  std::vector<LogPump::Commit> c0;
  std::vector<LogPump::Commit> c1;
  p0.tick(s0, c0);
  ASSERT_EQ(p0.started(), 1u);
  for (int i = 0; i < 1000 && p1.committed() == 0; ++i) {
    p1.tick(none, c1);
    driver->run_for(2000);
  }
  ASSERT_EQ(p1.committed(), 1u) << "the idle leader left slot 0 undecided";
  EXPECT_EQ(values_of(c1), (std::vector<std::uint64_t>{11, 12}));
  for (const auto& c : c1) EXPECT_FALSE(c.local);
  EXPECT_EQ(p1.started(), 1u) << "nothing else was sealed to adopt";
  p0.tick(s0, c0, false, /*seal_limit=*/0);
  ASSERT_EQ(c0.size(), 2u);
  for (const auto& c : c0) {
    EXPECT_TRUE(c.local) << "the sealer acknowledges its own batch";
    EXPECT_EQ(c.ticket, 1u);
  }
}

}  // namespace
}  // namespace omega
