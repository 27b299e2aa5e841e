// omega-bench load generator: runs one workload against a fresh cluster
// of three forked smr::SmrNode processes on loopback and prints one JSON
// object (end-to-end metrics, per-layer metrics, correctness checks).
//
//   omega_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --dir <scratch dir>
//
// Workloads: append_lowload, append_pipelined, read_mostly, leader_crash
// (see README.md for what each one stresses). The generator is a single
// thread: it forks the nodes before it opens anything, drives every
// connection from one poll loop and never holds more than kMaxConns
// connections. A run is a discarded warm-up trial plus kTrials trials,
// each on a fresh cluster; end-to-end metrics are medians over them.
// With --trace 1 the last trial is traced (spans around client calls,
// METRICS deltas at the window edges, TRACE_DUMP stitching afterwards),
// and fence and fault probes run after its window so every per-layer
// metric has samples.
#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster.h"
#include "net/client.h"
#include "obs/trace_stitch.h"
#include "stats.h"
#include "streams.h"

namespace perfbench {
namespace {

using omega::ProcessId;
using omega::kNoProcess;
using omega::net::Client;
using omega::net::NetError;
using omega::net::Status;

// ------------------------------------------------------------ constants ---

constexpr int kTrials = 10;  ///< clusters per run, one set-up each
constexpr double kWarmupS = 2;  ///< discarded warm-up trial
constexpr std::size_t kSlotBudget = 60000;  ///< stay below the 65536-slot log
constexpr double kP99LimitMs = 30.0;     ///< rate-ladder latency limit
/// The open-loop rate ladder: offered rate (ops/s) and share of the run.
/// The reference rung, which the headline p50/p99 come from, runs
/// longest so its tail rests on many samples. The top rung is about what
/// one generator thread can offer through net::Client with a core to
/// itself.
struct Rung {
  double rate;
  double share;
};
constexpr double kRefRate = 32000;
const std::vector<Rung> kLadder = {{16000, 0.15},
                                   {kRefRate, 0.35},
                                   {64000, 0.15},
                                   {96000, 0.15},
                                   {128000, 0.20}};
/// A rung is abandoned once this many requests are outstanding: it has
/// failed, and going on would overrun the nodes' 8192-command intake.
constexpr std::size_t kBacklogCap = 6000;
constexpr double kBacklogFloor = 64;
/// The generator ran behind its own schedule when the median request
/// went out later than this after it was due.
constexpr double kGenLateLimitUs = 1000;
/// A closed-loop generator busier than this share of its core measured
/// itself: the run is rejected.
constexpr double kGenCpuLimit = 0.8;
constexpr std::size_t kReadPool = 1024;
/// read_mostly's open-loop rates. The cluster answers point reads faster
/// than one generator thread can ask (a closed loop saturates it at ~180k
/// reads/s on the reference box), so it reads at a fixed rate the
/// generator sustains and the metrics are latency and cost per read.
constexpr double kReadRate = 20000;
constexpr double kFenceReadRate = 1000;
constexpr double kBgAppendRate = 500;
/// Open-loop load of a fault phase: appends, plain reads, fenced reads.
struct CrashLoad {
  double append_rate;
  double read_rate;
  double fence_rate;
};
constexpr CrashLoad kCrashLoad{400, 400, 40};
/// The fault probe after a traced window of another workload. Light, so
/// the survivors commit fewer slots while the victim is down than the
/// spill ring holds (README.md: a node that misses more never rejoins).
constexpr CrashLoad kProbeLoad{40, 40, 4};
constexpr double kProbeS = 2;
constexpr int kCrashKills = 1;  ///< per trial
constexpr double kRestartDelayS = 0.2;
/// A wait shorter than this is polled without sleeping, and a longer one
/// sleeps until this long before its end: a timer wake-up lands tens of
/// microseconds late (timer slack, and a virtual machine's interrupt
/// path), and an open loop's requests would go out that late. With
/// sleeps, read_mostly's reads left a median 18 us late.
constexpr std::int64_t kSpinNs = 200'000;
/// With --trace 1 the spans flip on and off at this period, so their
/// cost is measured within one cluster.
constexpr std::int64_t kSpanFlipNs = 100'000'000;

std::int64_t s_to_ns(double s) { return static_cast<std::int64_t>(s * 1e9); }

/// Polls `fds` until `wake_ns` at the latest (see kSpinNs).
void poll_until(std::vector<pollfd>& fds, std::int64_t wake_ns) {
  const std::int64_t wait = wake_ns - now_ns();
  const std::int64_t sleep = wait < kSpinNs ? 0 : wait - kSpinNs;
  timespec ts{static_cast<time_t>(sleep / 1000000000),
              static_cast<long>(sleep % 1000000000)};
  ::ppoll(fds.data(), fds.size(), &ts, nullptr);
}
double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double self_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  return summarize(v).p50;
}

// --------------------------------------------------------------- report ---

struct Metric {
  double value = 0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Report {
  std::vector<std::pair<std::string, Metric>> e2e, layers;
  std::vector<std::pair<std::string, double>> detail;
  std::vector<Check> checks;
  std::vector<std::string> notes;

  void e(const std::string& n, double v, const std::string& u) {
    e2e.emplace_back(n, Metric{v, u});
  }
  void l(const std::string& n, double v, const std::string& u) {
    layers.emplace_back(n, Metric{v, u});
  }
  void d(const std::string& n, double v) { detail.emplace_back(n, v); }
  /// Records a check; a check made once per trial fails if any failed.
  void check(const std::string& n, bool ok, const std::string& why = "") {
    for (Check& c : checks) {
      if (c.name != n) continue;
      if (!ok && c.ok) c.detail = why;
      c.ok = c.ok && ok;
      return;
    }
    checks.push_back(Check{n, ok, ok ? "" : why});
  }
};

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ------------------------------------------------------------------ run ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".";
};

/// Resource edges of a measurement window.
struct Edge {
  std::int64_t t = 0;
  std::vector<ProcUsage> nodes;
  double self_cpu = 0;
};

struct Window {
  Edge start, end;
  double ops = 0;  ///< client operations completed in the window
  double seconds() const { return ns_to_ms(end.t - start.t) / 1e3; }
  double node_cpu_s() const {
    double s = 0;
    for (std::size_t i = 0; i < start.nodes.size(); ++i) {
      s += end.nodes[i].cpu_s - start.nodes[i].cpu_s;
    }
    return s;
  }
  double node_cpu_s(std::uint32_t i) const {
    return end.nodes[i].cpu_s - start.nodes[i].cpu_s;
  }
  double gen_cpu_s() const { return end.self_cpu - start.self_cpu; }
  /// Node CPU milliseconds per 1000 completed operations.
  double cpu_ms_per_kop() const {
    return ops > 0 ? node_cpu_s() * 1e6 / ops : 0;
  }
};

/// Per-kill measurements of a fault phase.
struct Faults {
  std::vector<double> detect_ms, failover_ms, rejoin_ms, replayed;
  int kills = 0;
};

/// Generator CPU and operations answered while the benchmark's spans were
/// off [0] and on [1], over alternating intervals of one traced window.
struct SpanInterleave {
  bool active = false;
  std::int64_t next_flip = 0;
  double cpu0 = 0;
  std::uint64_t ops0 = 0;
  double cpu[2] = {0, 0};
  double ops[2] = {0, 0};
  /// Generator CPU microseconds per operation.
  double cost_us(int on) const {
    return ops[on] > 0 ? cpu[on] * 1e6 / ops[on] : 0;
  }
};

class Bench {
 public:
  explicit Bench(Args a) : a_(std::move(a)), deck_(a_.seed) {
    // Growing these mid-window would stall the generator (see
    // begin_trial); clear() keeps the capacity.
    app_lat_ms_.reserve(1 << 21);
    read_lat_us_.reserve(1 << 22);
    fence_lat_us_.reserve(1 << 20);
  }

  void run();
  void print() const;

 private:
  // --- cluster control (over the control link, opened per use) ---
  ProcessId find_leader(double timeout_s) {
    return perfbench::find_leader(*cl_, ctl_, timeout_s);
  }
  std::uint32_t leader_node(double timeout_s = 30);
  /// follow_leader() for a stream that must find one: throws if none.
  std::uint32_t follow(AppendStream& s);
  std::optional<Client::MetricsResult> scrape(std::uint32_t node);
  void scrape_all(MetricLedger& ledger, bool baseline);
  /// Forks the cluster and waits until it has formed; returns setup_s.
  double boot();
  /// Waits until every node names the same leader and has applied the
  /// first append (`cmd`, read with min_index `fence`): a node whose
  /// mirror stream is not up yet would start the load already behind.
  void await_formed(std::uint64_t cmd, std::uint64_t fence,
                    std::int64_t deadline);
  Edge edge() const;

  // --- workloads ---
  template <typename Streams, typename Step>
  void drive(const Streams& streams, std::int64_t end_ns,
             std::int64_t max_wait_ns, Step&& step);
  void start_interleave();
  void interleave_spans(std::int64_t now, bool force = false);
  Window lowload(double seconds);
  Window pipelined(double seconds, std::vector<double>& ref_lat,
                   double& max_ops);
  void prepopulate();
  Window read_mostly(double seconds);
  Window crash(double seconds, int kills, const CrashLoad& load,
               MetricLedger* ledger, Faults& faults);
  void fence_probe(int rounds);

  // --- verdicts ---
  void verify_logs();
  /// The mirror and election counters of every node, for a check that
  /// found a node behind.
  std::string mirror_note();
  void layers(const Window& w, const MetricLedger& wl,
              const MetricLedger& fl, const Faults& f,
              std::uint32_t leader, double overhead, double residual);
  double residual_share();

  std::uint64_t next_client() { return client_base_ += 16; }
  /// Clears what belongs to one trial's cluster.
  void begin_trial();

  Args a_;
  Report rep_;
  CommandDeck deck_;
  LogBook book_;
  Spans spans_;
  std::unique_ptr<Cluster> cl_;
  Link ctl_;
  std::uint64_t client_base_ = 1000;
  std::string tag_;  ///< detail-name prefix of the current trial
  std::uint64_t acked_total_ = 0;

  // latency sinks of the current window
  std::vector<double> app_lat_ms_, read_lat_us_, fence_lat_us_;
  std::vector<std::uint64_t> pool_;
  std::unordered_set<std::uint64_t> read_answers_;
  std::uint64_t stale_ = 0;
  std::string stale_note_;
  std::uint64_t reads_answered_ = 0;
  std::uint64_t appends_failed_ = 0, reads_failed_ = 0;
  std::uint64_t duplicates_ = 0;
  bool gen_bound_ = false;
  std::string gen_note_;
  std::unordered_map<std::uint64_t, double> trace_lat_;
  ReadStream::Tally read_tally_;
  SpanInterleave il_;
};

// ------------------------------------------------------- cluster control ---

std::uint32_t Bench::leader_node(double timeout_s) {
  const ProcessId p = find_leader(timeout_s);
  if (p == kNoProcess) throw std::runtime_error("no leader elected");
  return cl_->node_of(p);
}

std::uint32_t Bench::follow(AppendStream& s) {
  const std::optional<std::uint32_t> node = follow_leader(s, *cl_, ctl_, 30);
  if (!node) throw std::runtime_error("no leader elected");
  return *node;
}

std::optional<Client::MetricsResult> Bench::scrape(std::uint32_t node) {
  if (!cl_->alive(node)) return std::nullopt;
  try {
    ctl_.open(node, cl_->port(node));
    Client::MetricsResult m = ctl_.client().metrics();
    ctl_.close();
    if (m.ok()) return m;
  } catch (const NetError&) {
    ctl_.close();
  }
  return std::nullopt;
}

void Bench::scrape_all(MetricLedger& ledger, bool baseline) {
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    if (const auto m = scrape(n)) {
      if (baseline) {
        ledger.baseline(n, m->metrics);
      } else {
        ledger.observe(n, m->metrics);
      }
    }
  }
}

Edge Bench::edge() const {
  Edge e;
  e.t = now_ns();
  for (std::uint32_t n = 0; n < kNodes; ++n) e.nodes.push_back(cl_->usage(n));
  e.self_cpu = self_cpu_s();
  return e;
}

/// Forks the trial's cluster and times fork -> first acknowledged append.
double Bench::boot() {
  const std::int64_t t0 = now_ns();
  cl_->start();
  const std::uint64_t cmd = deck_.next();
  const std::int64_t deadline = t0 + s_to_ns(60);
  while (now_ns() < deadline) {
    const ProcessId p = find_leader(30);
    if (p == kNoProcess) break;
    const std::uint32_t node = cl_->node_of(p);
    try {
      ctl_.open(node, cl_->port(node));
      const Client::AppendResult r =
          ctl_.client().append(kGid, /*client=*/1, /*seq=*/1, cmd, 5000);
      const std::int64_t t1 = now_ns();
      ctl_.close();
      if (r.ok()) {
        book_.record(Acked{1, 1, cmd, r.index, t1});
        await_formed(cmd, r.index + 1, deadline);
        return static_cast<double>(now_ns() - t0) / 1e9;
      }
    } catch (const NetError&) {
      ctl_.close();
    }
  }
  throw std::runtime_error("cluster never acknowledged an append");
}

void Bench::await_formed(std::uint64_t cmd, std::uint64_t fence,
                         std::int64_t deadline) {
  while (now_ns() < deadline) {
    ProcessId leader = kNoProcess;
    std::uint32_t formed = 0;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      try {
        ctl_.open(n, cl_->port(n), 200);
        const Client::Result lr = ctl_.client().leader(kGid);
        const Client::ReadResult rr = ctl_.client().read(kGid, cmd, fence, 200);
        ctl_.close();
        if (n == 0) leader = lr.view.leader;
        if (lr.ok() && lr.view.leader != kNoProcess &&
            lr.view.leader == leader && rr.ok() && rr.index >= fence) {
          ++formed;
        }
      } catch (const NetError&) {
        ctl_.close();
      }
    }
    if (formed == kNodes) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw std::runtime_error("the cluster never formed: a node never applied "
                           "the first append or named another leader");
}

// ------------------------------------------------------------ workloads ---

/// Sentinel a drive() step returns when its work is done.
constexpr std::int64_t kDone = -1;

/// Runs `step` until `end_ns` or until it returns kDone, polling the
/// streams' links until the wake time it returns. `step` sees the links
/// the previous poll found readable.
template <typename Streams, typename Step>
void Bench::drive(const Streams& streams, std::int64_t end_ns,
                  std::int64_t max_wait_ns, Step&& step) {
  std::vector<pollfd> fds;
  while (now_ns() < end_ns) {
    interleave_spans(now_ns());
    std::int64_t wake = step(fds);
    if (wake == kDone) return;
    fds.clear();
    for (const auto* s : streams) s->add_pollfds(fds);
    poll_until(fds, std::min({wake, end_ns, now_ns() + max_wait_ns}));
  }
}

void Bench::start_interleave() {
  il_ = SpanInterleave{};
  il_.active = true;
  il_.cpu0 = self_cpu_s();
  il_.ops0 = spans_.ops;
  il_.next_flip = now_ns() + kSpanFlipNs;
  spans_.on = true;
}

/// Flips the spans when their interval is over (or when forced, to close
/// the last interval), charging the interval to the off or on bin.
void Bench::interleave_spans(std::int64_t now, bool force) {
  if (!il_.active || (!force && now < il_.next_flip)) return;
  const double cpu = self_cpu_s();
  const int on = spans_.on ? 1 : 0;
  il_.cpu[on] += cpu - il_.cpu0;
  il_.ops[on] += static_cast<double>(spans_.ops - il_.ops0);
  il_.cpu0 = cpu;
  il_.ops0 = spans_.ops;
  spans_.on = !spans_.on;
  il_.next_flip = now + kSpanFlipNs;
}

/// The poll set of an append stream and a read stream driven together.
struct AppendsAndReads {
  const AppendStream* a;
  const ReadStream* r;
  void add_pollfds(std::vector<pollfd>& fds) const {
    a->add_pollfds(fds);
    r->add_pollfds(fds);
  }
};

Window Bench::lowload(double seconds) {
  std::uint32_t node = leader_node();
  Link l[4];
  AppendStream s({&l[0], &l[1], &l[2], &l[3]}, next_client(), deck_, book_,
                 spans_);
  s.trace_latency = il_.active ? &trace_lat_ : nullptr;
  s.set_closed(true);
  s.connect(node, cl_->port(node));
  const std::vector<const AppendStream*> streams{&s};
  auto step = [&](const std::vector<pollfd>& ready) {
    const std::int64_t now = now_ns();
    s.harvest(now, ready);
    if (s.lost_leader()) node = follow(s);
    // The log holds 65536 slots and every append here takes one.
    if (book_.acked.size() >= kSlotBudget) return kDone;
    s.pump(now_ns());
    return INT64_MAX;
  };
  drive(streams, now_ns() + s_to_ns(0.3), s_to_ns(0.005), step);  // warm-up
  Window w;
  const std::size_t acked0 = book_.acked.size();
  s.sink.latency_ms = &app_lat_ms_;
  w.start = edge();
  drive(streams, w.start.t + s_to_ns(seconds), s_to_ns(0.005), step);
  w.end = edge();
  w.ops = static_cast<double>(book_.acked.size() - acked0);
  if (book_.acked.size() >= kSlotBudget) {
    rep_.notes.push_back("append_lowload reached the slot budget early");
  }
  s.sink = {};
  drive(streams, now_ns() + s_to_ns(5),
        s_to_ns(0.005), [&](const std::vector<pollfd>& ready) {
          s.harvest(now_ns(), ready);
          return s.in_flight() == 0 ? kDone : INT64_MAX;
        });
  appends_failed_ += s.failed() + s.in_flight() + s.waiting();
  duplicates_ += s.duplicates();
  s.disconnect();
  return w;
}

Window Bench::pipelined(double seconds, std::vector<double>& ref_lat,
                        double& max_ops) {
  std::uint32_t node = leader_node();
  Link l[4];
  AppendStream s({&l[0], &l[1], &l[2], &l[3]}, next_client(), deck_, book_,
                 spans_);
  s.trace_latency = il_.active ? &trace_lat_ : nullptr;
  s.connect(node, cl_->port(node));
  const std::vector<const AppendStream*> streams{&s};
  Window w;
  w.start = edge();
  const std::size_t acked0 = book_.acked.size();
  max_ops = 0;
  bool saturated = false;
  for (const Rung& rung : kLadder) {
    const double rate = rung.rate;
    const double rung_s = seconds * rung.share;
    std::vector<double> lat, late;
    const std::size_t expect = static_cast<std::size_t>(rate * rung_s) + 1024;
    lat.reserve(expect);
    late.reserve(expect);
    std::vector<BacklogPoint> backlog;
    s.sink = Sink{&lat, &late};
    const double gen0 = self_cpu_s();
    const std::int64_t t0 = now_ns();
    const std::int64_t t_end = t0 + s_to_ns(rung_s);
    std::int64_t next_sample = t0;
    bool aborted = false;
    s.set_rate(rate, t0);
    drive(streams, t_end, s_to_ns(0.002), [&](const std::vector<pollfd>& ready) {
      const std::int64_t now = now_ns();
      s.harvest(now, ready);
      if (s.lost_leader()) node = follow(s);
      s.pump(now_ns());
      if (now >= next_sample) {
        backlog.push_back(BacklogPoint{
            ns_to_ms(now - t0) / 1e3,
            static_cast<double>(s.in_flight() + s.waiting())});
        next_sample += s_to_ns(0.01);
      }
      if (s.in_flight() + s.waiting() > kBacklogCap) {
        aborted = true;
        return kDone;
      }
      return std::min(s.next_due(), next_sample);
    });
    const double wall = ns_to_ms(now_ns() - t0) / 1e3;
    const double gen_share = (self_cpu_s() - gen0) / wall;
    // Stop sending: a failed rung must not overrun the intake.
    s.set_rate(0, 0);
    drive(streams, now_ns() + s_to_ns(10), s_to_ns(0.005),
          [&](const std::vector<pollfd>& ready) {
      s.harvest(now_ns(), ready);
      return s.in_flight() + s.waiting() == 0 ? kDone : INT64_MAX;
    });
    const double achieved = static_cast<double>(lat.size()) / rung_s;
    const Summary ls = summarize(lat);
    const Summary lt = summarize(late);
    const bool growing =
        aborted || backlog_growing(backlog, rate, kBacklogFloor);
    const bool pass = !growing && ls.tail <= kP99LimitMs && s.failed() == 0;
    const std::string tag =
        tag_ + "rung_" + std::to_string(static_cast<int>(rate));
    rep_.d(tag + "_achieved_ops_s", achieved);
    rep_.d(tag + "_p50_ms", ls.p50);
    rep_.d(tag + "_p99_ms", ls.tail);
    rep_.d(tag + "_late_p50_us", lt.p50);
    rep_.d(tag + "_late_p99_us", lt.tail);
    rep_.d(tag + "_gen_cpu_share", gen_share);
    rep_.d(tag + "_backlog_slope", backlog_slope(backlog));
    rep_.d(tag + "_pass", pass ? 1 : 0);
    if (rate == kRefRate) ref_lat = lat;
    // When the cluster is the bottleneck the generator still sends on
    // time and the backlog grows; when the generator is, it falls behind
    // its own schedule.
    if (lt.p50 > kGenLateLimitUs) {
      gen_bound_ = true;
      gen_note_ = "generator ran " + std::to_string(lt.p50) +
                  " us late (median) at rung " + std::to_string(rate);
    }
    if (!pass) {
      saturated = true;
      break;
    }
    max_ops = achieved;
  }
  w.end = edge();
  w.ops = static_cast<double>(book_.acked.size() - acked0);
  if (!saturated) rep_.notes.push_back("append_pipelined: top rung passed");
  rep_.d(tag_ + "ladder_saturated", saturated ? 1 : 0);
  appends_failed_ += s.failed() + s.in_flight() + s.waiting();
  duplicates_ += s.duplicates();
  s.sink = {};
  s.disconnect();
  return w;
}

/// Appends read_mostly's keys in append_lowload's shape (a closed loop,
/// one append in flight per link). An open loop at 20k appends/s here
/// once left a follower stuck for good at 768 of 2676 entries: the
/// lagging-follower defect that append_pipelined exposes (README.md),
/// which belongs to the write path, not to the reads measured here.
void Bench::prepopulate() {
  std::uint32_t node = leader_node();
  Link l[4];
  AppendStream s({&l[0], &l[1], &l[2], &l[3]}, next_client(), deck_, book_,
                 spans_);
  s.connect(node, cl_->port(node));
  s.on_ack = [&](const AppendStream::Request&, const Acked& a) {
    pool_.push_back(a.cmd);
  };
  s.set_closed(true);
  const std::vector<const AppendStream*> streams{&s};
  drive(streams, now_ns() + s_to_ns(30), s_to_ns(0.005),
        [&](const std::vector<pollfd>& ready) {
    s.harvest(now_ns(), ready);
    if (s.lost_leader()) node = follow(s);
    if (s.submitted() >= kReadPool) s.set_closed(false);
    s.pump(now_ns());
    return pool_.size() >= kReadPool ? kDone : INT64_MAX;
  });
  appends_failed_ += s.failed();
  s.disconnect();
}

Window Bench::read_mostly(double seconds) {
  if (pool_.empty()) prepopulate();
  std::uint32_t node = leader_node();
  Link r[3], al;
  ReadStream rs({&r[0], &r[1], &r[2]}, a_.seed + client_base_, book_, spans_);
  rs.set_pool(&pool_);
  for (std::uint32_t n = 0; n < kNodes; ++n) rs.connect(n, n, cl_->port(n));
  AppendStream as({&al}, next_client(), deck_, book_, spans_);
  as.trace_latency = il_.active ? &trace_lat_ : nullptr;
  // Re-append pool keys so reads see their index move.
  std::uint64_t key_rng = a_.seed * 0x9E3779B97F4A7C15ULL + 7;
  as.next_cmd = [&] {
    key_rng = key_rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return pool_[(key_rng >> 33) % pool_.size()];
  };
  as.connect(node, cl_->port(node));
  const AppendsAndReads both{&as, &rs};
  const std::vector<const AppendsAndReads*> streams{&both};
  auto step = [&](const std::vector<pollfd>& ready) {
    const std::int64_t now = now_ns();
    as.harvest(now, ready);
    rs.harvest(now, ready);
    if (as.lost_leader()) node = follow(as);
    as.pump(now_ns());
    rs.pump(now_ns());
    return std::min(as.next_due(), rs.next_due());
  };
  rs.measuring = false;
  as.set_rate(kBgAppendRate, now_ns());
  rs.set_rate(kReadRate, now_ns());
  rs.set_fence_rate(kFenceReadRate, now_ns());
  drive(streams, now_ns() + s_to_ns(0.3), s_to_ns(0.002), step);  // warm-up
  rs.measuring = true;
  rs.latency_us = &read_lat_us_;
  rs.fence_latency_us = &fence_lat_us_;
  std::vector<double> late;
  late.reserve(static_cast<std::size_t>(kReadRate * seconds) + 1024);
  rs.late_us = &late;
  as.sink.latency_ms = &app_lat_ms_;
  // The window's operations are the plain reads; fenced reads and
  // appends run beside them.
  const std::uint64_t answered0 = rs.plain_answered();
  Window w;
  w.start = edge();
  drive(streams, w.start.t + s_to_ns(seconds), s_to_ns(0.002), step);
  w.end = edge();
  w.ops = static_cast<double>(rs.plain_answered() - answered0);
  rs.latency_us = rs.fence_latency_us = rs.late_us = nullptr;
  const Summary lt = summarize(late);
  rep_.d(tag_ + "read_late_p50_us", lt.p50);
  rep_.d(tag_ + "read_late_p99_us", lt.tail);
  if (lt.p50 > kGenLateLimitUs) {
    gen_bound_ = true;
    gen_note_ = "generator sent reads " + std::to_string(lt.p50) +
                " us late (median)";
  }
  as.sink = {};
  rs.set_rate(0, 0);
  rs.set_fence_rate(0, 0);
  as.set_rate(0, 0);
  drive(streams, now_ns() + s_to_ns(10), s_to_ns(0.002),
        [&](const std::vector<pollfd>& ready) {
    as.harvest(now_ns(), ready);
    rs.harvest(now_ns(), ready);
    as.pump(now_ns());
    rs.pump(now_ns());
    return as.in_flight() + as.waiting() + rs.in_flight() + rs.waiting() == 0
               ? kDone
               : INT64_MAX;
  });
  read_tally_.lease += rs.tally().lease;
  read_tally_.index += rs.tally().index;
  read_tally_.refused += rs.tally().refused;
  reads_answered_ += rs.tally().answered();
  reads_failed_ += rs.in_flight() + rs.waiting() + rs.tally().other;
  stale_ += rs.stale();
  if (stale_note_.empty()) stale_note_ = rs.stale_note();
  read_answers_.insert(rs.answers().begin(), rs.answers().end());
  appends_failed_ += as.failed() + as.in_flight() + as.waiting();
  duplicates_ += as.duplicates();
  as.disconnect();
  for (std::size_t i = 0; i < rs.links(); ++i) rs.disconnect(i);
  return w;
}

/// Open-loop appends and reads while the leader's node is SIGKILLed
/// `kills` times and restarted in place over its WAL.
Window Bench::crash(double seconds, int kills, const CrashLoad& load,
                    MetricLedger* ledger, Faults& f) {
  std::uint32_t node = leader_node();
  Link al, rl;
  AppendStream as({&al}, next_client(), deck_, book_, spans_);
  as.trace_latency = il_.active ? &trace_lat_ : nullptr;
  ReadStream rs({&rl}, a_.seed + client_base_, book_, spans_);
  std::vector<std::uint64_t> keys;
  for (const Acked& a : book_.acked) keys.push_back(a.cmd);
  rs.set_pool(&keys);
  as.connect(node, cl_->port(node));
  rs.connect(0, (node + 1) % kNodes, cl_->port((node + 1) % kNodes));
  const AppendsAndReads both{&as, &rs};
  const std::vector<const AppendsAndReads*> streams{&both};

  // Kill schedule from the seed: one kill per segment, 20-40% into it.
  std::uint64_t ks = a_.seed * 0xD1B54A32D192ED03ULL + client_base_;
  const double seg = seconds / kills;
  enum class Phase { kSteady, kDetect, kFailover, kRestart, kRejoin };
  Phase phase = Phase::kSteady;
  int k = 0;
  std::uint32_t victim = 0;
  std::int64_t kill_ns = 0, detect_ns = 0, restart_ns = 0, next_poll = 0;
  std::uint64_t target_commit = 0;

  Window w;
  w.start = edge();
  const std::int64_t t0 = w.start.t;
  auto kill_at = [&](int i) {
    ks = ks * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(ks >> 11) * 0x1.0p-53;
    return t0 + s_to_ns(seg * i + seg * (0.2 + 0.2 * u));
  };
  std::int64_t next_kill = kill_at(0);
  as.sink.latency_ms = &app_lat_ms_;
  rs.latency_us = &read_lat_us_;
  rs.fence_latency_us = &fence_lat_us_;
  as.on_ack = [&](const AppendStream::Request& req, const Acked& a) {
    keys.push_back(a.cmd);
    if (phase == Phase::kFailover && req.due_ns > kill_ns) {
      f.failover_ms.push_back(ns_to_ms(a.ack_ns - kill_ns));
      f.detect_ms.push_back(ns_to_ms(detect_ns - kill_ns));
      phase = Phase::kRestart;
    }
  };
  as.set_rate(load.append_rate, t0);
  rs.set_rate(load.read_rate, t0);
  rs.set_fence_rate(load.fence_rate, t0);
  const std::uint64_t answered0 = rs.tally().answered();
  const std::size_t acked0 = book_.acked.size();
  const std::int64_t end = t0 + s_to_ns(seconds);
  const std::int64_t hard_end = end + s_to_ns(5);

  auto reroute_reads = [&] {
    if (rl.is_open() && cl_->alive(rl.node())) return;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      const std::uint32_t c = (node + 1 + n) % kNodes;
      if (!cl_->alive(c)) continue;
      try {
        rs.connect(0, c, cl_->port(c));
        return;
      } catch (const NetError&) {
      }
    }
  };

  std::vector<pollfd> ready;
  while (now_ns() < hard_end &&
         (now_ns() < end || phase != Phase::kSteady)) {
    const std::int64_t now = now_ns();
    interleave_spans(now);
    as.harvest(now, ready);
    rs.harvest(now, ready);
    switch (phase) {
      case Phase::kSteady:
        if (k < kills && now >= next_kill && now < end) {
          victim = node;
          if (ledger != nullptr) {
            if (const auto m = scrape(victim)) ledger->observe(victim, m->metrics);
          }
          kill_ns = now_ns();
          cl_->kill(victim);
          as.disconnect();
          if (rl.node() == victim) rs.disconnect(0);
          phase = Phase::kDetect;
          next_poll = kill_ns;
        }
        break;
      case Phase::kDetect:
        if (now >= next_poll) {
          next_poll = now + s_to_ns(0.002);
          const ProcessId p = find_leader(0.001);
          if (p != kNoProcess) {
            detect_ns = now_ns();
            node = cl_->node_of(p);
            try {
              as.connect(node, cl_->port(node));
              phase = Phase::kFailover;
            } catch (const NetError&) {
            }
          }
        }
        break;
      case Phase::kFailover:
        break;
      case Phase::kRestart:
        if (now >= kill_ns + s_to_ns(kRestartDelayS)) {
          // The commit index the restarted node must reach to count as
          // rejoined: the leader's, read right before the restart.
          try {
            ctl_.open(node, cl_->port(node));
            target_commit =
                ctl_.client().read(kGid, 1, 0, 2000).commit_index;
            ctl_.close();
          } catch (const NetError&) {
            ctl_.close();
          }
          restart_ns = now_ns();
          cl_->restart(victim);
          if (ledger != nullptr) ledger->restarted(victim);
          phase = Phase::kRejoin;
          next_poll = restart_ns;
        }
        break;
      case Phase::kRejoin:
        if (now >= next_poll) {
          next_poll = now + s_to_ns(0.005);
          try {
            ctl_.open(victim, cl_->port(victim), 100);
            // A node behind its fence parks the read: keep the wait short,
            // the poll loop is blocked meanwhile.
            const Client::ReadResult r = ctl_.client().read(kGid, 1, 0, 100);
            if (r.ok() && r.commit_index >= target_commit) {
              f.rejoin_ms.push_back(ns_to_ms(now_ns() - restart_ns));
              if (const Client::MetricsResult m = ctl_.client().metrics();
                  m.ok()) {
                const auto* s = m.find("wal.replayed");
                f.replayed.push_back(s != nullptr ? static_cast<double>(s->value)
                                                  : 0);
              }
              ++f.kills;
              ++k;
              if (k < kills) next_kill = std::max(kill_at(k), now_ns());
              phase = Phase::kSteady;
            }
            ctl_.close();
          } catch (const NetError&) {
            ctl_.close();
          }
        }
        break;
    }
    // Outside detection (which polls for the new leader itself), a lost
    // or unreachable leader is looked for briefly, then again next turn.
    if ((as.lost_leader() || !as.connected()) && phase != Phase::kDetect) {
      if (const auto n = follow_leader(as, *cl_, ctl_, 0.05)) node = *n;
    }
    reroute_reads();
    if (now >= end) {
      as.set_rate(0, 0);
      rs.set_rate(0, 0);
      rs.set_fence_rate(0, 0);
    }
    as.pump(now_ns());
    rs.pump(now_ns());
    ready.clear();
    both.add_pollfds(ready);
    poll_until(ready, std::min({as.next_due(), rs.next_due(),
                                now_ns() + s_to_ns(0.002)}));
  }
  w.end = edge();
  w.ops = static_cast<double>(rs.tally().answered() - answered0 +
                              book_.acked.size() - acked0);
  if (f.kills < kills) rep_.notes.push_back("fault phase ran out of time");
  as.sink = {};
  rs.latency_us = rs.fence_latency_us = nullptr;
  as.set_rate(0, 0);
  rs.set_rate(0, 0);
  rs.set_fence_rate(0, 0);
  drive(streams, now_ns() + s_to_ns(10), s_to_ns(0.002),
        [&](const std::vector<pollfd>& ready) {
    as.harvest(now_ns(), ready);
    rs.harvest(now_ns(), ready);
    if (as.lost_leader() || !as.connected()) node = follow(as);
    reroute_reads();
    as.pump(now_ns());
    rs.pump(now_ns());
    return as.in_flight() + as.waiting() + rs.in_flight() + rs.waiting() == 0
               ? kDone
               : INT64_MAX;
  });
  read_tally_.lease += rs.tally().lease;
  read_tally_.index += rs.tally().index;
  read_tally_.refused += rs.tally().refused;
  reads_answered_ += rs.tally().answered();
  reads_failed_ += rs.in_flight() + rs.waiting() + rs.tally().other;
  stale_ += rs.stale();
  if (stale_note_.empty()) stale_note_ = rs.stale_note();
  read_answers_.insert(rs.answers().begin(), rs.answers().end());
  appends_failed_ += as.failed() + as.in_flight() + as.waiting();
  if (as.failed() > as.indeterminate()) {
    rep_.notes.push_back("appends refused with status " +
                         std::to_string(static_cast<int>(as.last_error())));
  }
  duplicates_ += as.duplicates();
  as.disconnect();
  rs.disconnect(0);
  return w;
}

/// Read-your-writes rounds: append at the leader, then read the key at
/// the leader (a lease read) and at a follower, both fenced on the
/// acknowledged position.
void Bench::fence_probe(int rounds) {
  const std::uint32_t node = leader_node();
  const std::uint32_t follower = (node + 1) % kNodes;
  Link w, r;
  w.open(node, cl_->port(node));
  r.open(follower, cl_->port(follower));
  const std::uint64_t client = next_client();
  for (int i = 0; i < rounds; ++i) {
    const std::uint64_t seq = static_cast<std::uint64_t>(i) + 1;
    const std::uint64_t cmd = deck_.next();
    const Client::AppendResult a = w.client().append(kGid, client, seq, cmd, 5000);
    if (!a.ok()) {
      ++appends_failed_;
      continue;
    }
    book_.record(Acked{client, seq, cmd, a.index, now_ns()});
    for (Link* l : {&w, &r}) {
      bool answered = false;
      for (int attempt = 0; attempt < 20 && !answered; ++attempt) {
        const Client::ReadResult rr =
            l->client().read(kGid, cmd, a.index + 1, 2000);
        if (!rr.ok()) continue;
        answered = true;
        if (rr.index < a.index + 1 && stale_++ == 0) {
          stale_note_ = "fence probe read below its fence";
        }
        read_answers_.insert((cmd << 32) | rr.index);
      }
      ++(answered ? reads_answered_ : reads_failed_);
    }
  }
}

// --------------------------------------------------------------- verdicts ---

std::string Bench::mirror_note() {
  static const char* const kNames[] = {"svc.epoch_changes", "mirror.reconnects",
                                       "mirror.resyncs", "mirror.max_unacked",
                                       "smr.watchdog_fires"};
  std::string note;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    const auto m = scrape(n);
    if (!m) continue;
    note += "; node " + std::to_string(n);
    for (const char* name : kNames) {
      const omega::obs::MetricSample* s = m->find(name);
      note += std::string(" ") + name + "=" +
              (s != nullptr ? std::to_string(s->value) : "?");
    }
  }
  return note;
}

void Bench::verify_logs() {
  std::uint64_t need = 0;
  for (const Acked& a : book_.acked) need = std::max(need, a.index + 1);
  std::vector<std::vector<std::uint64_t>> logs;
  std::string lagging;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    if (!cl_->alive(n)) continue;
    std::vector<std::uint64_t> entries;
    std::uint64_t seen = 0;
    const std::int64_t deadline = now_ns() + s_to_ns(20);
    while (now_ns() < deadline) {
      try {
        ctl_.open(n, cl_->port(n));
        Client::LogView v = ctl_.client().read_log_all(kGid, 1 << 22);
        ctl_.close();
        seen = v.entries.size();
        if (v.status == Status::kOk && v.entries.size() >= need) {
          entries = std::move(v.entries);
          break;
        }
      } catch (const NetError&) {
        ctl_.close();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (entries.empty() && lagging.empty()) {
      lagging = "; node " + std::to_string(n) + " stayed at " +
                std::to_string(seen) + " of " + std::to_string(need) +
                " entries for 20 s" + mirror_note();
    }
    logs.push_back(std::move(entries));
  }
  bool agree = logs.size() == kNodes;
  for (const auto& l : logs) agree = agree && l == logs.front();
  rep_.check("logs_agree", agree,
             "the live nodes' logs differ or a node never caught up" + lagging);
  static const std::vector<std::uint64_t> kNoLog;
  const std::vector<std::uint64_t>& log = logs.empty() ? kNoLog : logs.front();
  std::uint64_t misplaced = 0;
  std::string first_misplaced;
  for (std::size_t n = 0; n < logs.size(); ++n) {
    const auto& l = logs[n];
    for (const Acked& a : book_.acked) {
      if (a.index < l.size() && l[a.index] == a.cmd) continue;
      if (misplaced++ == 0) {
        first_misplaced = "; first: command " + std::to_string(a.cmd) +
                          " acknowledged at " + std::to_string(a.index) +
                          ", a log of length " + std::to_string(l.size());
      }
    }
  }
  rep_.check("acked_append_at_its_index_on_every_node", misplaced == 0,
             std::to_string(misplaced) +
                 " acknowledged appends missing or misplaced" +
                 first_misplaced);
  // Account for every log entry: it is an acknowledged append at its
  // index, or an indeterminate request (in flight when its connection
  // broke) that may have committed at most once. Anything else is a
  // duplicate or a phantom entry.
  std::vector<bool> claimed(log.size(), false);
  std::uint64_t double_claims = 0;
  for (const Acked& a : book_.acked) {
    if (a.index >= claimed.size()) continue;
    if (claimed[a.index]) ++double_claims;
    claimed[a.index] = true;
  }
  std::unordered_map<std::uint64_t, std::uint64_t> maybe;
  for (const std::uint64_t c : book_.indeterminate) ++maybe[c];
  std::uint64_t unaccounted = 0, indeterminate_committed = 0;
  std::string first_unaccounted;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (claimed[i]) continue;
    const auto it = maybe.find(log[i]);
    if (it == maybe.end() || it->second == 0) {
      if (unaccounted++ == 0) {
        first_unaccounted = "; first: command " + std::to_string(log[i]) +
                            " at " + std::to_string(i);
        for (const Acked& a : book_.acked) {
          if (a.cmd == log[i]) {
            first_unaccounted += ", acknowledged at " + std::to_string(a.index);
          }
        }
      }
    } else {
      --it->second;
      ++indeterminate_committed;
    }
  }
  rep_.check("acked_append_exactly_once",
             double_claims == 0 && unaccounted == 0 && duplicates_ == 0,
             std::to_string(unaccounted) + " log entries are neither an "
                 "acknowledged append nor an indeterminate one, " +
                 std::to_string(double_claims) + " indices acknowledged "
                 "twice, " + std::to_string(duplicates_) + " duplicate acks" +
                 first_unaccounted);
  rep_.d(tag_ + "indeterminate_appends",
         static_cast<double>(book_.indeterminate.size()));
  rep_.d(tag_ + "indeterminate_committed",
         static_cast<double>(indeterminate_committed));
  std::uint64_t bad_reads = 0;
  for (const std::uint64_t ans : read_answers_) {
    const std::uint64_t key = ans >> 32, idx = ans & 0xffffffffULL;
    if (idx == 0 || idx > log.size() || log[idx - 1] != key) ++bad_reads;
  }
  rep_.check("read_index_names_the_key_in_the_log", bad_reads == 0,
             std::to_string(bad_reads) + " answered reads point elsewhere");
  rep_.check("no_stale_reads", stale_ == 0,
             std::to_string(stale_) + " stale: " + stale_note_);
  rep_.d(tag_ + "log_entries", static_cast<double>(log.size()));
}

double Bench::residual_share() {
  std::vector<omega::obs::NodeTrace> nodes;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    if (!cl_->alive(n)) continue;
    try {
      ctl_.open(n, cl_->port(n));
      Client::TraceDumpResult d = ctl_.client().trace_dump();
      ctl_.close();
      if (d.ok()) {
        nodes.push_back(omega::obs::NodeTrace{n, d.realtime_offset_ns,
                                              std::move(d.records)});
      }
    } catch (const NetError&) {
      ctl_.close();
    }
  }
  using omega::obs::TraceEvent;
  std::vector<double> e2e, hops;
  for (const auto& t : omega::obs::stitch(nodes)) {
    const auto it = trace_lat_.find(t.trace_id);
    if (it == trace_lat_.end()) continue;
    const auto* enq = omega::obs::find_hop(t, TraceEvent::kAppendEnqueue);
    if (enq == nullptr) continue;
    const std::int64_t ln = enq->node;
    const std::int64_t a = omega::obs::hop_ns(t, TraceEvent::kAppendEnqueue,
                                              TraceEvent::kBatchSeal, ln, ln);
    const std::int64_t b = omega::obs::hop_ns(t, TraceEvent::kBatchSeal,
                                              TraceEvent::kSlotDecide, ln, ln);
    const std::int64_t c = omega::obs::hop_ns(t, TraceEvent::kSlotDecide,
                                              TraceEvent::kBatchApply, ln, ln);
    if (a < 0 || b < 0 || c < 0) continue;
    e2e.push_back(it->second);
    hops.push_back(static_cast<double>(a + b + c));
  }
  rep_.d("trace_stitched_appends", static_cast<double>(e2e.size()));
  if (e2e.empty()) return 1;
  const double p50 = median(e2e);
  return (p50 - median(hops)) / p50;
}

void Bench::layers(const Window& w, const MetricLedger& wl,
                   const MetricLedger& fl, const Faults& f,
                   std::uint32_t leader, double overhead, double residual) {
  const double wall_s = w.seconds();
  const double ops = std::max(1.0, w.ops);
  double frames = 0;
  for (const char* name :
       {"net.frames.append", "net.frames.read", "net.frames.commit_event",
        "net.frames.reg_push", "net.frames.reg_ack", "net.frames.leader",
        "net.frames.metrics", "net.frames.read_log", "net.frames.other",
        "net.frames.ping", "net.frames.event", "net.frames.watch",
        "net.frames.session_open", "net.frames.reg_hello",
        "net.frames.trace_dump", "net.frames.health",
        "net.frames.metrics_event", "net.frames.stats"}) {
    frames += wl.delta(name);
  }
  const double slots = wl.delta(leader, "smr.seal_to_decide_ns");
  rep_.l("net.client_send_us", spans_.send.mean_us(), "us");
  rep_.l("net.client_recv_us", spans_.recv.mean_us(), "us");
  rep_.l("net.frames_per_op", frames / ops, "count");
  rep_.l("net.ack_flush_us", wl.mean("net.ack_flush_ns") / 1e3, "us");
  rep_.l("smr.ops_per_slot",
         slots > 0 ? wl.delta(leader, "smr.commits") / slots : 0, "count");
  rep_.l("smr.decide_to_apply_us", wl.mean("smr.decide_to_apply_ns") / 1e3,
         "us");
  // Read-path metrics come from the window when the workload reads, else
  // from the fence and fault probes that follow it.
  const bool reads_in_window = a_.workload == "read_mostly" ||
                               a_.workload == "leader_crash";
  const MetricLedger& rl = reads_in_window ? wl : fl;
  rep_.l("smr.fence_wait_us", rl.mean("smr.fence_wait_ns") / 1e3, "us");
  const double lease = rl.delta("smr.reads.lease"),
               index = rl.delta("smr.reads.index"),
               fallback = rl.delta("smr.reads.fallback"),
               refused = rl.delta("smr.reads.refused");
  const double reads = std::max(1.0, lease + index + fallback + refused);
  rep_.l("smr.reads.lease_share", lease / reads, "share");
  rep_.l("smr.reads.index_share", index / reads, "share");
  rep_.l("smr.reads.fallback_share", fallback / reads, "share");
  rep_.l("smr.reads.refused_share", refused / reads, "share");
  const MetricLedger& kl = a_.workload == "leader_crash" ? wl : fl;
  const double kills = std::max(1, f.kills);
  rep_.l("smr.lease_dropped_per_kill", kl.delta("smr.lease.dropped") / kills,
         "count");
  std::vector<double> takeover;
  for (std::size_t i = 0; i < f.failover_ms.size(); ++i) {
    takeover.push_back(f.failover_ms[i] - f.detect_ms[i]);
  }
  rep_.l("smr.takeover_ms", median(takeover), "ms");
  rep_.l("consensus.decide_us", wl.mean("smr.seal_to_decide_ns") / 1e3, "us");
  const double all_slots = wl.delta("smr.seal_to_decide_ns");
  rep_.l("consensus.steps_per_slot",
         all_slots > 0 ? wl.delta("svc.steps") / all_slots : 0, "count");
  rep_.l("svc.sweep_us", wl.mean("svc.sweep_ns") / 1e3, "us");
  rep_.l("svc.busy_share",
         wl.delta_sum("svc.sweep_ns") / 1e9 / (wall_s * kNodes), "share");
  rep_.l("svc.timer_fires_per_s", wl.delta("svc.timer_fires") / wall_s, "1/s");
  // A configuration gauge that reads the same on every run: a detail.
  rep_.d("svc.max_pace_us", wl.level(leader, "svc.max_pace_us"));
  rep_.l("core.detect_ms", median(f.detect_ms), "ms");
  rep_.l("core.elections_per_kill",
         kl.delta("svc.epoch_changes") / kNodes / kills, "count");
  rep_.l("registers.push_lag_us", wl.mean("mirror.push_lag_ns") / 1e3, "us");
  rep_.l("registers.frames_per_op", wl.delta("mirror.pushed_frames") / ops,
         "count");
  rep_.l("registers.resyncs_per_restart", kl.delta("mirror.resyncs") / kills,
         "count");
  const double fsyncs = wl.delta("wal.fsync_ns");
  rep_.l("wal.fsync_us", wl.mean("wal.fsync_ns") / 1e3, "us");
  rep_.l("wal.records_per_fsync",
         fsyncs > 0 ? wl.delta("wal.appended_records") / fsyncs : 0, "count");
  rep_.l("wal.busy_share",
         wl.delta_sum("wal.fsync_ns") / 1e9 / (wall_s * kNodes), "share");
  rep_.l("wal.replayed_per_restart", median(f.replayed), "count");
  rep_.l("obs.sample_us", wl.mean("obs.sample_ns") / 1e3, "us");
  rep_.l("obs.trace_overhead_share", overhead, "share");
  double follower_cpu = 0;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    if (n != leader) follower_cpu += w.node_cpu_s(n);
  }
  rep_.l("node.leader_cpu_ms_per_kop", w.node_cpu_s(leader) * 1e6 / ops, "ms");
  rep_.l("node.follower_cpu_ms_per_kop",
         follower_cpu / (kNodes - 1) * 1e6 / ops, "ms");
  rep_.l("fault.failover_ms", median(f.failover_ms), "ms");
  rep_.l("fault.rejoin_ms", median(f.rejoin_ms), "ms");
  rep_.l("trace.residual_share", residual, "share");
  double restarts_seen = 0;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    restarts_seen += static_cast<double>(wl.resets(n) + fl.resets(n));
  }
  rep_.d("ledger_restarts_seen", restarts_seen);
}

// ------------------------------------------------------------------ run ---

void Bench::begin_trial() {
  book_ = LogBook{};
  // Reserve up front: a rehash of a few hundred thousand entries mid-run
  // would stall the generator for tens of milliseconds.
  book_.acked.reserve(1 << 20);
  book_.keys_seen.reserve(1 << 20);
  book_.floor.reserve(1 << 17);
  pool_.clear();
  read_answers_.clear();
  trace_lat_.clear();
  spans_ = Spans{};
  app_lat_ms_.clear();
  read_lat_us_.clear();
  fence_lat_us_.clear();
}

void Bench::run() {
  const std::string& wl = a_.workload;
  if (wl != "append_lowload" && wl != "append_pipelined" &&
      wl != "read_mostly" && wl != "leader_crash") {
    throw std::invalid_argument("unknown workload " + wl);
  }
  std::filesystem::create_directories(a_.dir);
  pin_to_cores(/*generator=*/true);
  ::setenv("OMEGA_TRACE_DIR", a_.dir.c_str(), 1);
  const KeepAwake awake;

  // The run is kTrials trials, each on a freshly forked cluster that gets
  // an equal share of the time; end-to-end metrics are medians over the
  // trials, so one cluster that happens to run slow or fast does not set
  // the result. With --trace 1 the last trial is the traced one.
  const double secs = a_.seconds / kTrials;
  std::map<std::string, std::vector<double>> e2e, details;
  {
    // Warm-up, discarded: after an idle spell this class of VM runs slow
    // for a second or two (a 4-thread spin loop reads 25-50% low).
    begin_trial();
    tag_ = "warmup_";
    cl_ = std::make_unique<Cluster>(a_.dir + "/warmup");
    boot();
    lowload(kWarmupS);
    verify_logs();
    acked_total_ += book_.acked.size();
    cl_.reset();
  }
  for (int k = 0; k < kTrials; ++k) {
    begin_trial();
    char tag[16];
    std::snprintf(tag, sizeof tag, "t%d_", k);
    tag_ = tag;
    cl_ = std::make_unique<Cluster>(a_.dir + "/trial" + std::to_string(k));
    e2e["setup_s"].push_back(boot());
    const bool traced = a_.trace && k + 1 == kTrials;
    Faults faults;
    std::vector<double> ref_lat;
    double max_ops = 0;
    MetricLedger wl_ledger, probe_ledger;
    if (traced) scrape_all(wl_ledger, true);
    const std::uint32_t leader0 = leader_node();
    if (traced) start_interleave();
    Window w;
    if (wl == "append_lowload") {
      w = lowload(secs);
    } else if (wl == "append_pipelined") {
      w = pipelined(secs, ref_lat, max_ops);
    } else if (wl == "read_mostly") {
      w = read_mostly(secs);
    } else {
      w = crash(secs, kCrashKills, kCrashLoad, traced ? &wl_ledger : nullptr,
                faults);
    }
    // A closed loop offers only what the generator manages: if it was
    // busy nearly all the window, it measured itself. (The open loops
    // check how late they sent instead.)
    const double gen_share = w.gen_cpu_s() / w.seconds();
    if (wl == "append_lowload" && gen_share > kGenCpuLimit) {
      gen_bound_ = true;
      gen_note_ = "the closed loop's generator was busy " +
                  std::to_string(gen_share) + " of the window";
    }
    if (traced) {
      interleave_spans(now_ns(), /*force=*/true);
      il_.active = false;
      spans_.on = false;
      scrape_all(wl_ledger, false);
      // Stitch before the probes: a kill takes the leader's rings with it.
      const double residual = residual_share();
      // The spans' cost: the generator's extra CPU per operation in the
      // intervals they were on, over all CPU per operation (nodes and
      // generator). The nodes' own tracing is always on; not included.
      const double cost_us =
          w.ops > 0 ? (w.node_cpu_s() + w.gen_cpu_s()) * 1e6 / w.ops : 0;
      const double overhead =
          cost_us > 0 ? (il_.cost_us(1) - il_.cost_us(0)) / cost_us : 0;
      rep_.d("gen_cpu_us_per_op_spans_on", il_.cost_us(1));
      rep_.d("gen_cpu_us_per_op_spans_off", il_.cost_us(0));
      // Probes after the window, for the layers the workload itself does
      // not exercise: fenced reads at the leader and a follower, and one
      // fault phase (the leader_crash workload's, at a light load).
      if (wl != "leader_crash") {
        scrape_all(probe_ledger, true);
        if (wl != "read_mostly") fence_probe(200);
        crash(kProbeS, 1, kProbeLoad, &probe_ledger, faults);
        scrape_all(probe_ledger, false);
      }
      layers(w, wl_ledger, probe_ledger, faults, leader0, overhead, residual);
    } else {
      // End-to-end metrics of this trial (see README.md for the
      // workload -> operation map).
      std::vector<double> app = app_lat_ms_, rd = read_lat_us_,
                          fence = fence_lat_us_;
      const Summary as = summarize(app);
      const Summary rs = summarize(rd);
      const Summary fs = summarize(fence);
      if (wl == "append_pipelined") {
        const Summary r = summarize(ref_lat);
        e2e["ops_s"].push_back(max_ops);
        e2e["p50_ms"].push_back(r.p50);
        e2e["p99_ms"].push_back(r.tail);
        details["append_max_ops_s"].push_back(max_ops);
        details["append_p50_ms"].push_back(r.p50);
        details["append_p99_ms"].push_back(r.tail);
        details["ref_rung_samples"].push_back(static_cast<double>(r.n));
      } else if (wl == "read_mostly") {
        e2e["ops_s"].push_back(w.ops / w.seconds());
        e2e["p50_ms"].push_back(rs.p50 / 1e3);
        e2e["p99_ms"].push_back(rs.tail / 1e3);
      } else {
        e2e["ops_s"].push_back(w.ops / w.seconds());
        e2e["p50_ms"].push_back(as.p50);
        e2e["p99_ms"].push_back(as.tail);
      }
      e2e["cpu_ms_per_kop"].push_back(w.cpu_ms_per_kop());
      rep_.d(tag_ + "ops_s", e2e["ops_s"].back());
      rep_.d(tag_ + "p50_ms", e2e["p50_ms"].back());
      double rss = 0;
      for (std::uint32_t n = 0; n < kNodes; ++n) rss += cl_->usage(n).hwm_mb;
      e2e["rss_mb"].push_back(rss);
      if (wl != "append_pipelined") {
        details["append_ops_s"].push_back(static_cast<double>(as.n) / w.seconds());
        details["append_p50_ms"].push_back(as.p50);
        details["append_p99_ms"].push_back(as.tail);
        details["append_samples"].push_back(static_cast<double>(as.n));
      }
      if (rs.n > 0) {
        details["read_ops_s"].push_back(static_cast<double>(rs.n) / w.seconds());
        details["read_p50_us"].push_back(rs.p50);
        details["read_p99_us"].push_back(rs.tail);
        details["read_samples"].push_back(static_cast<double>(rs.n));
        details["fence_read_p99_us"].push_back(fs.tail);
        details["fence_read_samples"].push_back(static_cast<double>(fs.n));
      }
      if (!faults.failover_ms.empty()) {
        details["failover_ms"].push_back(median(faults.failover_ms));
        details["rejoin_ms"].push_back(median(faults.rejoin_ms));
        details["kills"].push_back(faults.kills);
      }
      details["gen_cpu_share"].push_back(gen_share);
    }
    verify_logs();
    acked_total_ += book_.acked.size();
    cl_.reset();
  }

  for (const auto& [name, unit] :
       {std::pair{"setup_s", "s"}, {"ops_s", "1/s"}, {"p50_ms", "ms"},
        {"cpu_ms_per_kop", "ms"}, {"rss_mb", "MB"}}) {
    rep_.e(name, median(e2e[name]), unit);
  }
  // The tail moves 20-50% between runs on a shared box: printed, not gated.
  rep_.d("p99_ms", median(e2e["p99_ms"]));
  for (const auto& [name, v] : details) rep_.d(name, median(v));
  const double attempted = static_cast<double>(
      acked_total_ + appends_failed_ + reads_answered_ + reads_failed_);
  rep_.d("failed_share", attempted > 0
                             ? static_cast<double>(appends_failed_ + reads_failed_) /
                                   attempted
                             : 0);
  for (std::size_t i = 0; i < e2e["setup_s"].size(); ++i) {
    rep_.d("setup_s_trial" + std::to_string(i), e2e["setup_s"][i]);
  }
  rep_.check("connection_budget", max_open_conns() <= kMaxConns,
             "held " + std::to_string(max_open_conns()) + " connections");
  rep_.check("single_generator_thread", self_threads() == 1,
             std::to_string(self_threads()) + " generator threads");
  rep_.check("generator_not_the_bottleneck", !gen_bound_, gen_note_);
  rep_.d("max_open_connections", max_open_conns());
  rep_.d("appends_acked", static_cast<double>(acked_total_));
  rep_.d("appends_failed", static_cast<double>(appends_failed_));
  rep_.d("reads_answered", static_cast<double>(reads_answered_));
  rep_.d("reads_failed", static_cast<double>(reads_failed_));
  rep_.d("read_lease", static_cast<double>(read_tally_.lease));
  rep_.d("read_index", static_cast<double>(read_tally_.index));
  rep_.d("read_refused", static_cast<double>(read_tally_.refused));
}

void Bench::print() const {
  const std::uint64_t attempted =
      acked_total_ + appends_failed_ + reads_answered_ + reads_failed_;
  const std::uint64_t failed = appends_failed_ + reads_failed_;
  bool correct = true;
  for (const Check& c : rep_.checks) correct = correct && c.ok;
  std::ostringstream o;
  o << "{\"workload\":" << json_str(a_.workload) << ",\"seed\":" << a_.seed
    << ",\"trace\":" << (a_.trace ? 1 : 0)
    << ",\"correct\":" << (correct ? "true" : "false")
    << ",\"attempted\":" << attempted << ",\"failed\":" << failed;
  auto metrics = [&](const char* key,
                     const std::vector<std::pair<std::string, Metric>>& m) {
    o << ",\"" << key << "\":{";
    for (std::size_t i = 0; i < m.size(); ++i) {
      o << (i ? "," : "") << json_str(m[i].first) << ":{\"value\":"
        << json_num(m[i].second.value)
        << ",\"unit\":" << json_str(m[i].second.unit) << "}";
    }
    o << "}";
  };
  metrics("e2e", rep_.e2e);
  metrics("layers", rep_.layers);
  o << ",\"detail\":{";
  for (std::size_t i = 0; i < rep_.detail.size(); ++i) {
    o << (i ? "," : "") << json_str(rep_.detail[i].first) << ":"
      << json_num(rep_.detail[i].second);
  }
  o << "},\"checks\":[";
  for (std::size_t i = 0; i < rep_.checks.size(); ++i) {
    const Check& c = rep_.checks[i];
    o << (i ? "," : "") << "{\"name\":" << json_str(c.name)
      << ",\"ok\":" << (c.ok ? "true" : "false")
      << ",\"detail\":" << json_str(c.detail) << "}";
  }
  o << "],\"notes\":[";
  for (std::size_t i = 0; i < rep_.notes.size(); ++i) {
    o << (i ? "," : "") << json_str(rep_.notes[i]);
  }
  o << "]}";
  std::cout << o.str() << std::endl;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--dir") {
      a.dir = v;
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (a.workload.empty() || a.seconds <= 0) {
    throw std::invalid_argument("usage: omega_bench --workload W --seed N "
                                "--seconds S --trace 0|1 --dir D");
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    perfbench::Bench bench(perfbench::parse(argc, argv));
    bench.run();
    bench.print();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "omega_bench: %s\n", e.what());
    return 2;
  }
}
