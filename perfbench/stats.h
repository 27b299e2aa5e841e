// Pure measurement logic of omega-bench, kept apart from the sockets and
// processes so it can be unit-tested: the percentile rule, backlog
// detection on the open-loop rate ladder, and the METRICS delta ledger
// that survives a node's registry restarting at zero.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

// ------------------------------------------------------------ percentiles ---

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// The percentile reported for a sample of `n`: `want` when at least
/// kTailBeyond samples lie beyond it (nearest-rank), else the highest
/// percentile that still has that many beyond it. Never below the median;
/// samples too small for even that report the median.
double tail_quantile(std::size_t n, double want);

/// Nearest-rank quantile of an ascending-sorted sample (0 when empty).
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Median and rule-capped tail of one latency sample.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tail_q = 0;  ///< the percentile actually reported (e.g. 0.99)
  double tail = 0;
};

/// Sorts `sample` in place and summarizes it; `want` is the tail asked
/// for (0.99 for the `*_p99_*` metrics).
Summary summarize(std::vector<double>& sample, double want = 0.99);

// ------------------------------------------------------- backlog ladder ---

/// One backlog observation inside a rung: seconds since the rung began,
/// requests sent and not yet acknowledged.
struct BacklogPoint {
  double t_s = 0;
  double outstanding = 0;
};

/// Least-squares slope of outstanding requests over time (requests/s);
/// 0 for fewer than two points.
double backlog_slope(const std::vector<BacklogPoint>& pts);

/// A rung offered at `rate` ops/s has a growing backlog when the
/// outstanding count rises faster than kBacklogGrowShare of the offered
/// rate and ends above `floor` requests (the in-flight depth a healthy
/// pipeline holds anyway).
inline constexpr double kBacklogGrowShare = 0.02;
bool backlog_growing(const std::vector<BacklogPoint>& pts, double rate,
                     double floor);

// -------------------------------------------------------- metric ledger ---

/// How a scraped metric accumulates. Counters and histograms only grow
/// within one process life; so do the cumulative gauges (callback gauges
/// over transport totals such as mirror.pushed_frames). Level gauges are
/// point values (queue depths, RSS) — only their latest reading counts.
enum class Accrual : std::uint8_t { kCumulative, kLevel };

/// Classifies a scraped sample: counters and histograms are cumulative;
/// gauges are levels unless named in the cumulative-gauge catalog.
Accrual accrual_of(const omega::obs::MetricSample& s);

/// Window deltas of every node's metrics. Feed it each scrape of a node
/// (window start, before a kill, window end); the deltas add up across
/// restarts. A node restarted in place begins a fresh registry at zero:
/// call restarted() so its next scrape counts from zero, and a
/// cumulative value that went backwards is also treated as a restart.
class MetricLedger {
 public:
  /// Sets the window baseline for `node` (first scrape of the window).
  void baseline(std::uint32_t node,
                const std::vector<omega::obs::MetricSample>& samples);
  /// Accumulates the growth since the node's previous scrape.
  void observe(std::uint32_t node,
               const std::vector<omega::obs::MetricSample>& samples);
  /// The node was restarted: its registry starts again at zero.
  void restarted(std::uint32_t node);

  /// Window delta of a cumulative metric (histograms: sample count),
  /// summed over nodes or for one node.
  double delta(const std::string& name) const;
  double delta(std::uint32_t node, const std::string& name) const;
  /// Window delta of a histogram's sum.
  double delta_sum(const std::string& name) const;
  double delta_sum(std::uint32_t node, const std::string& name) const;
  /// Histogram mean over the window (sum delta / count delta), summed
  /// over nodes; 0 when the window recorded nothing.
  double mean(const std::string& name) const;
  /// Latest reading of a level gauge on `node` (0 if never seen).
  double level(std::uint32_t node, const std::string& name) const;
  /// Restarts detected (explicit or by a counter going backwards).
  std::uint64_t resets(std::uint32_t node) const;

 private:
  struct Track {
    Accrual accrual = Accrual::kCumulative;
    double last_value = 0;
    double last_sum = 0;
    double d_value = 0;
    double d_sum = 0;
    bool seen = false;
  };
  struct Node {
    std::map<std::string, Track> tracks;
    bool fresh_life = false;
    std::uint64_t resets = 0;
  };
  std::map<std::uint32_t, Node> nodes_;
};

}  // namespace perfbench
