// Unit tests of omega-bench's measurement logic: the percentile rule,
// backlog detection on the rate ladder, and METRICS delta accounting
// across a node restart.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

using omega::obs::MetricSample;

// ------------------------------------------------------------ percentiles ---

TEST(PercentileRule, ReportsP99WhenTenSamplesLieBeyondIt) {
  EXPECT_DOUBLE_EQ(tail_quantile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(tail_quantile(100000, 0.99), 0.99);
}

TEST(PercentileRule, CapsTheTailAtTenSamplesBeyond) {
  // 500 samples: p99 would leave 5 beyond; the highest with 10 is p98.
  EXPECT_DOUBLE_EQ(tail_quantile(500, 0.99), 0.98);
  // 200 samples: p95.
  EXPECT_DOUBLE_EQ(tail_quantile(200, 0.99), 0.95);
}

TEST(PercentileRule, TinySamplesFallBackToTheMedian) {
  EXPECT_DOUBLE_EQ(tail_quantile(0, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(tail_quantile(20, 0.99), 0.5);
  EXPECT_NEAR(tail_quantile(21, 0.99), 11.0 / 21, 1e-12);
  EXPECT_GT(tail_quantile(30, 0.99), 0.5);
}

TEST(PercentileRule, TenSamplesRemainBeyondTheReportedValue) {
  for (std::size_t n : {25u, 50u, 137u, 999u, 1000u, 1001u, 5000u}) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);  // 1..n
    const Summary s = summarize(v);
    EXPECT_EQ(s.n, n);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [&](double x) { return x > s.tail; }));
    EXPECT_GE(beyond, kTailBeyond) << "n=" << n;
    EXPECT_LE(s.tail_q, 0.99);
  }
}

TEST(PercentileRule, NearestRankMedianAndTail) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile_sorted({1, 2, 3, 4, 5}, 0.5), 3);
  std::vector<double> big(2000);
  std::iota(big.begin(), big.end(), 1.0);
  const Summary s = summarize(big);
  EXPECT_DOUBLE_EQ(s.p50, 1000);
  EXPECT_DOUBLE_EQ(s.tail, 1980);  // ceil(0.99 * 2000) = 1980th value
  const Summary small = summarize(v);
  EXPECT_DOUBLE_EQ(small.p50, 3);
  EXPECT_DOUBLE_EQ(small.tail_q, 0.5);
}

// ------------------------------------------------------- backlog ladder ---

std::vector<BacklogPoint> ramp(double per_s, double base, double seconds) {
  std::vector<BacklogPoint> pts;
  for (double t = 0; t < seconds; t += 0.01) {
    pts.push_back(BacklogPoint{t, base + per_s * t});
  }
  return pts;
}

TEST(BacklogDetection, SteadyPipelineIsNotGrowing) {
  // A healthy pipeline holds a constant few hundred in flight.
  EXPECT_FALSE(backlog_growing(ramp(0, 300, 2), 64000, 64));
  EXPECT_NEAR(backlog_slope(ramp(0, 300, 2)), 0, 1e-9);
}

TEST(BacklogDetection, OverloadIsGrowing) {
  // Offered 128k/s, served 96k/s: the backlog climbs 32k/s.
  const auto pts = ramp(32000, 100, 0.2);
  EXPECT_NEAR(backlog_slope(pts), 32000, 1);
  EXPECT_TRUE(backlog_growing(pts, 128000, 64));
}

TEST(BacklogDetection, SlowDriftBelowTheShareIsNotGrowing) {
  // 1% of the offered rate per second stays under the 2% threshold.
  EXPECT_FALSE(backlog_growing(ramp(640, 100, 2), 64000, 64));
  EXPECT_TRUE(backlog_growing(ramp(2000, 100, 2), 64000, 64));
}

TEST(BacklogDetection, GrowthThatEndsBelowTheFloorIsNotABacklog) {
  // Rising from 0 to ~40 requests: still within the in-flight floor.
  EXPECT_FALSE(backlog_growing(ramp(20, 0, 2), 500, 64));
}

TEST(BacklogDetection, TooFewPoints) {
  EXPECT_FALSE(backlog_growing({}, 1000, 64));
  EXPECT_DOUBLE_EQ(backlog_slope({BacklogPoint{0, 5000}}), 0);
}

// -------------------------------------------------------- metric ledger ---

MetricSample counter(const char* name, std::int64_t v) {
  MetricSample s;
  s.name = name;
  s.kind = MetricSample::Kind::kCounter;
  s.value = v;
  return s;
}

MetricSample gauge(const char* name, std::int64_t v) {
  MetricSample s;
  s.name = name;
  s.kind = MetricSample::Kind::kGauge;
  s.value = v;
  return s;
}

MetricSample hist(const char* name, std::int64_t count, std::uint64_t sum) {
  MetricSample s;
  s.name = name;
  s.kind = MetricSample::Kind::kHistogram;
  s.value = count;
  s.sum = sum;
  return s;
}

TEST(MetricLedger, CounterDeltaOverTheWindow) {
  MetricLedger l;
  l.baseline(0, {counter("svc.steps", 1000)});
  l.observe(0, {counter("svc.steps", 1500)});
  l.observe(0, {counter("svc.steps", 1700)});
  EXPECT_DOUBLE_EQ(l.delta("svc.steps"), 700);
  EXPECT_EQ(l.resets(0), 0u);
}

TEST(MetricLedger, HistogramMeanFromSumAndCountDeltas) {
  MetricLedger l;
  l.baseline(0, {hist("wal.fsync_ns", 10, 10000)});
  l.baseline(1, {hist("wal.fsync_ns", 0, 0)});
  l.observe(0, {hist("wal.fsync_ns", 30, 50000)});  // +20 samples, +40000
  l.observe(1, {hist("wal.fsync_ns", 20, 20000)});  // +20 samples, +20000
  EXPECT_DOUBLE_EQ(l.delta("wal.fsync_ns"), 40);
  EXPECT_DOUBLE_EQ(l.delta_sum("wal.fsync_ns"), 60000);
  EXPECT_DOUBLE_EQ(l.mean("wal.fsync_ns"), 1500);
  EXPECT_DOUBLE_EQ(l.delta(1, "wal.fsync_ns"), 20);
}

TEST(MetricLedger, ExplicitRestartCountsTheNewLifeFromZero) {
  MetricLedger l;
  l.baseline(2, {counter("smr.commits", 5000), hist("svc.sweep_ns", 100, 9000)});
  // Scraped just before the kill.
  l.observe(2, {counter("smr.commits", 5400), hist("svc.sweep_ns", 150, 14000)});
  l.restarted(2);
  // The new process counted 7000 on its own: more than the old life's
  // last reading, so only the explicit restart gets this right.
  l.observe(2, {counter("smr.commits", 7000), hist("svc.sweep_ns", 40, 2000)});
  EXPECT_DOUBLE_EQ(l.delta("smr.commits"), 400 + 7000);
  EXPECT_DOUBLE_EQ(l.delta("svc.sweep_ns"), 50 + 40);
  EXPECT_DOUBLE_EQ(l.delta_sum("svc.sweep_ns"), 5000 + 2000);
  EXPECT_EQ(l.resets(2), 1u);
}

TEST(MetricLedger, CounterGoingBackwardsIsARestart) {
  MetricLedger l;
  l.baseline(1, {counter("svc.epoch_changes", 10), counter("svc.steps", 900)});
  l.observe(1, {counter("svc.epoch_changes", 12), counter("svc.steps", 5)});
  // steps fell 900 -> 5: the whole scrape is a fresh life, so
  // epoch_changes 12 counts in full too.
  EXPECT_DOUBLE_EQ(l.delta("svc.steps"), 5);
  EXPECT_DOUBLE_EQ(l.delta("svc.epoch_changes"), 12);
  EXPECT_EQ(l.resets(1), 1u);
}

TEST(MetricLedger, CumulativeGaugesAccrueLikeCounters) {
  EXPECT_EQ(accrual_of(gauge("mirror.pushed_frames", 1)), Accrual::kCumulative);
  EXPECT_EQ(accrual_of(gauge("mirror.resyncs", 1)), Accrual::kCumulative);
  EXPECT_EQ(accrual_of(gauge("smr.queue_pending", 1)), Accrual::kLevel);
  EXPECT_EQ(accrual_of(counter("smr.commits", 1)), Accrual::kCumulative);
  MetricLedger l;
  l.baseline(0, {gauge("mirror.pushed_frames", 100)});
  l.observe(0, {gauge("mirror.pushed_frames", 250)});
  l.restarted(0);
  l.observe(0, {gauge("mirror.pushed_frames", 30)});
  EXPECT_DOUBLE_EQ(l.delta("mirror.pushed_frames"), 150 + 30);
}

TEST(MetricLedger, LevelGaugesKeepTheLatestReadingAndNoDelta) {
  MetricLedger l;
  l.baseline(0, {gauge("smr.queue_pending", 10), gauge("wal.replayed", 0)});
  l.observe(0, {gauge("smr.queue_pending", 3), gauge("wal.replayed", 0)});
  l.restarted(0);
  // A level going down is no restart signal, and a restarted node's
  // replay count is a level of its new life.
  l.observe(0, {gauge("smr.queue_pending", 7), gauge("wal.replayed", 4200)});
  EXPECT_DOUBLE_EQ(l.level(0, "smr.queue_pending"), 7);
  EXPECT_DOUBLE_EQ(l.level(0, "wal.replayed"), 4200);
  EXPECT_DOUBLE_EQ(l.delta("smr.queue_pending"), 0);
  EXPECT_EQ(l.resets(0), 1u);
}

TEST(MetricLedger, MetricFirstSeenMidWindowCountsInFull) {
  MetricLedger l;
  l.baseline(0, {counter("svc.steps", 10)});
  l.observe(0, {counter("svc.steps", 20), counter("smr.lease.dropped", 2)});
  EXPECT_DOUBLE_EQ(l.delta("smr.lease.dropped"), 2);
  EXPECT_DOUBLE_EQ(l.delta("svc.steps"), 10);
}

TEST(MetricLedger, UnknownNamesAndNodesReadZero) {
  MetricLedger l;
  EXPECT_DOUBLE_EQ(l.delta("nope"), 0);
  EXPECT_DOUBLE_EQ(l.mean("nope"), 0);
  EXPECT_DOUBLE_EQ(l.level(9, "nope"), 0);
  EXPECT_EQ(l.resets(9), 0u);
}

}  // namespace
}  // namespace perfbench
