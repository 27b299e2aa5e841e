#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double tail_quantile(std::size_t n, double want) {
  if (n <= 2 * kTailBeyond) return 0.5;
  // Nearest rank: quantile q reports sorted[ceil(q n) - 1], leaving
  // n - ceil(q n) samples beyond it; at least kTailBeyond must remain.
  const double cap = static_cast<double>(n - kTailBeyond) /
                     static_cast<double>(n);
  return std::max(0.5, std::min(want, cap));
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  // The epsilon keeps q * n that lands on an integer from rounding up.
  const double rank = std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  idx = std::min(idx, sorted.size() - 1);
  return sorted[idx];
}

Summary summarize(std::vector<double>& sample, double want) {
  std::sort(sample.begin(), sample.end());
  Summary s;
  s.n = sample.size();
  s.p50 = quantile_sorted(sample, 0.5);
  s.tail_q = tail_quantile(s.n, want);
  s.tail = quantile_sorted(sample, s.tail_q);
  return s;
}

double backlog_slope(const std::vector<BacklogPoint>& pts) {
  if (pts.size() < 2) return 0;
  double mt = 0, mo = 0;
  for (const auto& p : pts) {
    mt += p.t_s;
    mo += p.outstanding;
  }
  mt /= static_cast<double>(pts.size());
  mo /= static_cast<double>(pts.size());
  double num = 0, den = 0;
  for (const auto& p : pts) {
    num += (p.t_s - mt) * (p.outstanding - mo);
    den += (p.t_s - mt) * (p.t_s - mt);
  }
  return den > 0 ? num / den : 0;
}

bool backlog_growing(const std::vector<BacklogPoint>& pts, double rate,
                     double floor) {
  if (pts.empty()) return false;
  return backlog_slope(pts) > kBacklogGrowShare * rate &&
         pts.back().outstanding > floor;
}

Accrual accrual_of(const omega::obs::MetricSample& s) {
  using Kind = omega::obs::MetricSample::Kind;
  if (s.kind != Kind::kGauge) return Accrual::kCumulative;
  // Callback gauges over monotone transport totals.
  static const char* const kCumulativeGauges[] = {
      "mirror.pushed_frames", "mirror.acked_frames", "mirror.reconnects",
      "mirror.resyncs"};
  for (const char* name : kCumulativeGauges) {
    if (s.name == name) return Accrual::kCumulative;
  }
  return Accrual::kLevel;
}

void MetricLedger::baseline(
    std::uint32_t node, const std::vector<omega::obs::MetricSample>& samples) {
  Node& n = nodes_[node];
  n.fresh_life = false;
  for (const auto& s : samples) {
    Track& t = n.tracks[s.name];
    t.accrual = accrual_of(s);
    t.last_value = static_cast<double>(s.value);
    t.last_sum = static_cast<double>(s.sum);
    t.seen = true;
  }
}

void MetricLedger::observe(
    std::uint32_t node, const std::vector<omega::obs::MetricSample>& samples) {
  Node& n = nodes_[node];
  bool fresh = n.fresh_life;
  if (!fresh) {
    // A cumulative value going backwards means the process restarted
    // since the last scrape, whether or not anyone said so.
    for (const auto& s : samples) {
      const auto it = n.tracks.find(s.name);
      if (it == n.tracks.end() || !it->second.seen) continue;
      if (accrual_of(s) == Accrual::kCumulative &&
          static_cast<double>(s.value) < it->second.last_value) {
        fresh = true;
        ++n.resets;
        break;
      }
    }
  }
  for (const auto& s : samples) {
    Track& t = n.tracks[s.name];
    t.accrual = accrual_of(s);
    const double v = static_cast<double>(s.value);
    const double sum = static_cast<double>(s.sum);
    if (t.accrual == Accrual::kCumulative) {
      // A metric first seen mid-window was registered during it, so all
      // of its value accrued in the window — same as a fresh life.
      const bool from_zero = fresh || !t.seen;
      t.d_value += from_zero ? v : v - t.last_value;
      t.d_sum += from_zero ? sum : sum - t.last_sum;
    }
    t.last_value = v;
    t.last_sum = sum;
    t.seen = true;
  }
  n.fresh_life = false;
}

void MetricLedger::restarted(std::uint32_t node) {
  Node& n = nodes_[node];
  n.fresh_life = true;
  ++n.resets;
}

double MetricLedger::delta(const std::string& name) const {
  double d = 0;
  for (const auto& [id, n] : nodes_) d += delta(id, name);
  return d;
}

double MetricLedger::delta(std::uint32_t node, const std::string& name) const {
  const auto n = nodes_.find(node);
  if (n == nodes_.end()) return 0;
  const auto t = n->second.tracks.find(name);
  return t == n->second.tracks.end() ? 0 : t->second.d_value;
}

double MetricLedger::delta_sum(const std::string& name) const {
  double d = 0;
  for (const auto& [id, n] : nodes_) d += delta_sum(id, name);
  return d;
}

double MetricLedger::delta_sum(std::uint32_t node,
                               const std::string& name) const {
  const auto n = nodes_.find(node);
  if (n == nodes_.end()) return 0;
  const auto t = n->second.tracks.find(name);
  return t == n->second.tracks.end() ? 0 : t->second.d_sum;
}

double MetricLedger::mean(const std::string& name) const {
  const double count = delta(name);
  return count > 0 ? delta_sum(name) / count : 0;
}

double MetricLedger::level(std::uint32_t node, const std::string& name) const {
  const auto n = nodes_.find(node);
  if (n == nodes_.end()) return 0;
  const auto t = n->second.tracks.find(name);
  return t == n->second.tracks.end() ? 0 : t->second.last_value;
}

std::uint64_t MetricLedger::resets(std::uint32_t node) const {
  const auto n = nodes_.find(node);
  return n == nodes_.end() ? 0 : n->second.resets;
}

}  // namespace perfbench
