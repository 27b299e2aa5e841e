// Event-driven stepping of the svc worker pool: a worker waits out its
// pace only when nothing woke it, pooled stepping gives the Ω heartbeat
// one T2 iteration per sweep, and the thread-per-process RtDriver keeps
// sharing every step between the heartbeat and the application.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "rt/proc_executor.h"
#include "rt/rt_driver.h"
#include "smr/smr_service.h"

namespace omega {
namespace {

ProcTask spin(std::atomic<std::uint64_t>& yields) {
  for (;;) {
    co_await YieldOp{};
    yields.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t progress_of(MemoryBackend& mem, ProcessId p) {
  GroupId g = 0;
  EXPECT_TRUE(mem.layout().find_group("PROGRESS", g));
  return mem.peek(mem.layout().cell(g, p));
}

TEST(WorkerWake, AppendCommitsWithoutWaitingOutThePace) {
  // A 200 ms idle cadence: without the append and seal wakeups one
  // append would wait out several of them.
  svc::SvcConfig cfg;
  cfg.workers = 1;
  cfg.tick_us = 20000;
  cfg.ops_per_sweep = 64;  // an uncontended slot decides within one sweep
  cfg.pace_us = 200000;
  cfg.max_pace_us = 200000;
  svc::MultiGroupLeaderService svc(cfg);
  smr::SmrService smr(svc);
  smr::SmrSpec spec;
  spec.max_batch = 8;
  smr.add_log(1, spec);
  svc.start();
  ASSERT_NE(svc.await_leader(1, 30000000), kNoProcess);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    std::promise<smr::AppendOutcome> done;
    auto outcome = done.get_future();
    const auto t0 = std::chrono::steady_clock::now();
    smr.append(1, /*client=*/3, seq, 100 + seq,
               [&done](smr::AppendOutcome oc, std::uint64_t) {
                 done.set_value(oc);
               });
    ASSERT_EQ(outcome.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    const auto took = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(outcome.get(), smr::AppendOutcome::kCommitted);
    EXPECT_LT(took, std::chrono::milliseconds(20))
        << "append " << seq << " waited out the idle pace";
  }
  svc.stop();
  EXPECT_FALSE(svc.failed()) << svc.failure_message();
}

TEST(WorkerWake, StepSweepRunsOneHeartbeatIterationPerSweep) {
  // A lone process always leads, so every T2 iteration writes PROGRESS.
  OmegaInstance inst = make_omega(AlgoKind::kWriteEfficient, 1);
  ProcExecutor ex(*inst.processes[0], *inst.memory, /*tick_us=*/1000);
  std::atomic<std::uint64_t> yields{0};
  ex.add_app_task(spin(yields));
  const std::uint64_t before = progress_of(*inst.memory, 0);
  for (std::int64_t sweep = 0; sweep < 10; ++sweep) {
    ex.step_sweep(sweep, /*app_ops=*/16);
  }
  EXPECT_EQ(progress_of(*inst.memory, 0) - before, 10u)
      << "one PROGRESS write per sweep";
  EXPECT_GE(yields.load(), 10u * 15) << "the app keeps its budget";
}

TEST(WorkerWake, RtDriverStepsTheHeartbeatWithoutACap) {
  RtConfig cfg;
  cfg.algo = AlgoKind::kWriteEfficient;
  cfg.n = 1;
  cfg.tick_us = 2000;
  cfg.pace_us = 0;
  RtDriver d(cfg);
  std::atomic<std::uint64_t> yields{0};
  d.add_app_task(0, spin(yields));
  d.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  d.stop();
  ASSERT_FALSE(d.failed()) << d.failure_message();
  // step() shares the thread round-robin: a heartbeat iteration (query +
  // write) per app step or so, not one per some budget of app steps.
  const std::uint64_t progress = progress_of(d.memory(), 0);
  ASSERT_GT(yields.load(), 100u);
  EXPECT_GE(progress, yields.load() / 4)
      << progress << " heartbeats for " << yields.load() << " app steps";
}

}  // namespace
}  // namespace omega
