// Three OS processes, one replicated log: each child runs an SmrNode
// (one replica + mirror transport + TCP front-end); the parent is a pure
// protocol client. Verifies end to end that appends commit on every node
// in FIFO order, that SIGKILL of the leader process elects a new leader
// that serves appends, that a deposed leader answers every append it
// accepted, that sealing is bounded by the live followers' apply reach
// only, and that an idle leader sweeps at its idle pace.
//
// fork() happens before any thread exists in this test binary (gtest
// discovery runs each TEST in its own process), so the children may
// safely construct the full threaded runtime.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "net/client.h"
#include "smr/node.h"

namespace omega::smr {
namespace {

std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  EXPECT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

constexpr svc::GroupId kGid = 42;

NodeTopology make_topology() {
  NodeTopology topo;
  for (std::uint32_t i = 0; i < 3; ++i) {
    topo.nodes.push_back(NodeEndpoint{i, "127.0.0.1", pick_free_port(),
                                      pick_free_port()});
  }
  return topo;
}

SmrSpec test_spec() {
  SmrSpec spec;
  spec.n = 3;
  spec.capacity = 512;
  spec.window = 4;
  spec.max_batch = 8;
  return spec;
}

/// What every node of a test cluster runs.
struct ClusterOptions {
  SmrSpec spec = test_spec();
  /// Millisecond-scale ticks: cross-process heartbeats ride TCP, and on
  /// a shared single-core box the monitors need margin over scheduling
  /// noise. Adaptive pace keeps three idle nodes off the one core.
  std::int64_t tick_us = 1000;
  std::int64_t pace_us = 200;
  std::int64_t max_pace_us = 2000;
  /// Per-node WAL in a temporary directory, acks on a quorum of WALs.
  bool durable = false;
};

/// Child body: build the node, run until killed.
[[noreturn]] void run_node(const NodeTopology& base, std::uint32_t self,
                           const ClusterOptions& opts,
                           const std::string& wal_dir) {
  try {
    NodeTopology topo = base;
    topo.self = self;
    svc::SvcConfig scfg;
    scfg.workers = 1;
    scfg.tick_us = opts.tick_us;
    scfg.pace_us = opts.pace_us;
    scfg.max_pace_us = opts.max_pace_us;
    wal::WalOptions wopts;
    wopts.dir = wal_dir;
    SmrNode node(topo, scfg, {}, wopts);
    node.add_log(kGid, opts.spec);
    node.start();
    for (;;) {
      // A failed group (model violation) would otherwise stall silently:
      // surface it loudly so a stuck parent-side deadline is diagnosable.
      if (node.service().failed()) {
        std::fprintf(stderr, "node %u FAILED: %s\n", self,
                     node.service().failure_message().c_str());
        _exit(2);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "node %u threw: %s\n", self, e.what());
    _exit(1);
  } catch (...) {
    _exit(1);
  }
  _exit(0);
}

class Cluster {
 public:
  explicit Cluster(ClusterOptions opts = {}) : topo_(make_topology()) {
    if (opts.durable) {
      char tmpl[] = "/tmp/omega_mnsmr_XXXXXX";
      EXPECT_NE(::mkdtemp(tmpl), nullptr);
      wal_base_ = tmpl;
      opts.spec.quorum_ack = true;
    }
    for (std::uint32_t i = 0; i < 3; ++i) {
      const std::string wal_dir =
          wal_base_.empty() ? "" : wal_base_ + "/node" + std::to_string(i);
      const pid_t pid = fork();
      if (pid == 0) run_node(topo_, i, opts, wal_dir);
      pids_.push_back(pid);
    }
  }

  ~Cluster() {
    for (const pid_t pid : pids_) {
      if (pid > 0) ::kill(pid, SIGKILL);
    }
    for (const pid_t pid : pids_) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
    if (!wal_base_.empty()) std::filesystem::remove_all(wal_base_);
  }

  const NodeTopology& topo() const { return topo_; }

  /// SIGSTOP: the node keeps its sockets but runs nothing. A frozen node
  /// counts as not alive (nobody waits on its answers).
  void freeze(std::uint32_t node) {
    ::kill(pids_[node], SIGSTOP);
    frozen_[node] = true;
  }
  void thaw(std::uint32_t node) {
    ::kill(pids_[node], SIGCONT);
    frozen_[node] = false;
  }

  void kill_node(std::uint32_t node) {
    ::kill(pids_[node], SIGKILL);
    ::waitpid(pids_[node], nullptr, 0);
    pids_[node] = -1;
    dead_.push_back(node);
  }

  bool alive(std::uint32_t node) const {
    return pids_[node] > 0 && !frozen_[node];
  }

  /// Blocking connect with retries (children need time to bind+serve).
  void connect(net::Client& c, std::uint32_t node, int deadline_s = 60) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(deadline_s);
    for (;;) {
      try {
        c.connect("127.0.0.1", topo_.nodes[node].serve_port, 2000);
        c.enable_auto_reconnect();
        return;
      } catch (const net::NetError&) {
        if (std::chrono::steady_clock::now() >= deadline) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
  }

  /// Waits until some ALIVE node reports an agreed leader hosted on an
  /// alive node; returns the leader's replica id (kNoProcess on timeout).
  ProcessId await_leader(int deadline_s) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(deadline_s);
    while (std::chrono::steady_clock::now() < deadline) {
      for (std::uint32_t node = 0; node < 3; ++node) {
        if (!alive(node)) continue;
        try {
          net::Client c;
          connect(c, node, 5);
          const auto r = c.leader(kGid);
          if (r.ok() && r.view.leader != kNoProcess &&
              alive(topo_.node_of(r.view.leader))) {
            return r.view.leader;
          }
        } catch (const net::NetError&) {
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return kNoProcess;
  }

 private:
  NodeTopology topo_;
  std::string wal_base_;
  std::vector<pid_t> pids_;
  std::vector<std::uint32_t> dead_;
  bool frozen_[3] = {false, false, false};
};

/// Appends via whatever node currently leads, following NotLeader hints.
void append_until_committed(Cluster& cluster, std::uint64_t client,
                            std::uint64_t seq, std::uint64_t cmd,
                            int deadline_s) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(deadline_s);
  while (std::chrono::steady_clock::now() < deadline) {
    const ProcessId leader = cluster.await_leader(deadline_s);
    ASSERT_NE(leader, kNoProcess) << "no leader elected in time";
    const std::uint32_t node = cluster.topo().node_of(leader);
    try {
      net::Client c;
      cluster.connect(c, node, 10);
      const auto r = c.append_retry(kGid, client, seq, cmd, 15000);
      if (r.ok()) return;
    } catch (const net::NetError&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  FAIL() << "append of " << cmd << " did not commit in " << deadline_s
         << "s";
}

TEST(MultiNodeSmr, FifoCommitsOnAllNodesAndSigkillFailover) {
  Cluster cluster;

  // Phase 1: a stable leader emerges across three OS processes (the Ω
  // heartbeats travel the register mirror).
  const ProcessId first_leader = cluster.await_leader(120);
  ASSERT_NE(first_leader, kNoProcess);

  // Phase 2: a batch of appends commits...
  constexpr std::uint64_t kFirst = 20;
  for (std::uint64_t i = 0; i < kFirst; ++i) {
    append_until_committed(cluster, /*client=*/1, /*seq=*/1 + i, 500 + i,
                           120);
  }

  // ...and becomes visible on EVERY node, in FIFO order (followers apply
  // through their mirrors).
  for (std::uint32_t node = 0; node < 3; ++node) {
    net::Client c;
    cluster.connect(c, node);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    net::Client::LogView page;
    for (;;) {
      page = c.read_log(kGid, 0, 256);
      if (page.status == net::Status::kOk && page.commit_index >= kFirst) {
        break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "node " << node << " never caught up (commit_index "
          << page.commit_index << ")";
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ASSERT_GE(page.entries.size(), kFirst);
    for (std::uint64_t i = 0; i < kFirst; ++i) {
      EXPECT_EQ(page.entries[i], 500 + i)
          << "node " << node << " diverges at index " << i;
    }
  }

  // Phase 3: SIGKILL the leader's process; the survivors must elect a
  // new leader that serves appends.
  const std::uint32_t dead = cluster.topo().node_of(first_leader);
  cluster.kill_node(dead);
  for (std::uint64_t i = 0; i < 5; ++i) {
    append_until_committed(cluster, /*client=*/2, /*seq=*/1 + i, 900 + i,
                           180);
  }

  // The surviving nodes agree on the full log, old prefix intact.
  std::vector<std::uint64_t> logs[3];
  for (std::uint32_t node = 0; node < 3; ++node) {
    if (!cluster.alive(node)) continue;
    net::Client c;
    cluster.connect(c, node);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    for (;;) {
      const auto page = c.read_log(kGid, 0, 256);
      if (page.status == net::Status::kOk &&
          page.commit_index >= kFirst + 5) {
        logs[node] = page.entries;
        break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "survivor " << node << " never converged";
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    for (std::uint64_t i = 0; i < kFirst; ++i) {
      EXPECT_EQ(logs[node][i], 500 + i) << "prefix rewritten on " << node;
    }
  }
  std::vector<const std::vector<std::uint64_t>*> survivors;
  for (std::uint32_t node = 0; node < 3; ++node) {
    if (cluster.alive(node)) survivors.push_back(&logs[node]);
  }
  ASSERT_EQ(survivors.size(), 2u);
  const std::size_t common =
      std::min(survivors[0]->size(), survivors[1]->size());
  for (std::size_t i = 0; i < common; ++i) {
    EXPECT_EQ((*survivors[0])[i], (*survivors[1])[i])
        << "survivors disagree at index " << i;
  }
}

/// Reads the whole log from `node` once it holds at least `need` entries.
std::vector<std::uint64_t> read_full_log(Cluster& cluster, std::uint32_t node,
                                         std::uint64_t need) {
  net::Client c;
  cluster.connect(c, node);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (;;) {
    const auto page = c.read_log(kGid, 0, 512);
    if (page.status == net::Status::kOk && page.commit_index >= need) {
      return page.entries;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << "node " << node << " never reached " << need
                    << " entries";
      return {};
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

TEST(MultiNodeSmr, DeposedLeaderAnswersEveryAcceptedAppend) {
  Cluster cluster;
  const ProcessId first_leader = cluster.await_leader(120);
  ASSERT_NE(first_leader, kNoProcess);
  append_until_committed(cluster, /*client=*/1, /*seq=*/1, 500, 120);
  const std::uint32_t old_node = cluster.topo().node_of(first_leader);

  // Appends queue up in the frozen leader's socket: on SIGCONT it accepts
  // them under its stale view, while the others already elected anew.
  net::Client old;
  cluster.connect(old, old_node);
  cluster.freeze(old_node);
  constexpr std::uint64_t kQueued = 16;
  std::map<std::uint64_t, std::uint64_t> cmd_of;  // req id -> command
  for (std::uint64_t i = 0; i < kQueued; ++i) {
    cmd_of[old.append_async(kGid, /*client=*/3, /*seq=*/1 + i, 700 + i)] =
        700 + i;
  }
  ASSERT_NE(cluster.await_leader(120), kNoProcess) << "no failover leader";
  cluster.thaw(old_node);

  // Keep the log moving at whoever leads, until every queued append has
  // its answer: slots the old leader sealed get decided by the new one.
  std::map<std::uint64_t, net::Client::AppendResult> answers;  // by command
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (std::uint64_t seq = 1; answers.size() < kQueued; ++seq) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << answers.size() << " of " << kQueued << " appends answered";
    append_until_committed(cluster, /*client=*/4, seq, 900 + seq, 60);
    while (const auto r = old.next_append_result(50)) {
      answers[cmd_of.at(r->req_id)] = r->result;
    }
  }

  std::uint64_t need = 0;
  for (const auto& [cmd, r] : answers) {
    ASSERT_TRUE(r.ok() || r.status == net::Status::kNotLeader)
        << "append of " << cmd << " answered status "
        << static_cast<int>(r.status);
    if (r.ok()) need = std::max(need, r.index + 1);
  }
  std::uint32_t reader = 0;
  while (!cluster.alive(reader)) ++reader;
  const std::vector<std::uint64_t> log = read_full_log(cluster, reader, need);
  for (const auto& [cmd, r] : answers) {
    const auto copies = std::count(log.begin(), log.end(), cmd);
    if (r.ok()) {
      EXPECT_EQ(copies, 1) << "acknowledged " << cmd;
      ASSERT_LT(r.index, log.size());
      EXPECT_EQ(log[r.index], cmd) << "acknowledged at " << r.index;
    } else {
      EXPECT_EQ(copies, 0) << cmd << " answered NOT_LEADER but committed";
    }
  }
}

/// Sealing is bounded by the followers' apply reach: a small ring makes
/// the bound bite within a few dozen slots.
ClusterOptions small_ring() {
  ClusterOptions opts;
  opts.spec.ring_slack = 8;  // ring rows: window (4) + 8
  // Coarser monitor ticks: under a loaded test run, 1 ms timeouts elect
  // new leaders mid-test, and a failover's redirects would blur the
  // latency these tests bound.
  opts.tick_us = 20000;
  return opts;
}
constexpr std::uint64_t kRingRows = 12;

TEST(MultiNodeSmr, KilledFollowerDoesNotHoldSealingBack) {
  Cluster cluster(small_ring());
  const ProcessId leader = cluster.await_leader(120);
  ASSERT_NE(leader, kNoProcess);
  const std::uint32_t lnode = cluster.topo().node_of(leader);
  append_until_committed(cluster, /*client=*/1, /*seq=*/1, 500, 120);
  cluster.kill_node((lnode + 1) % 3);
  net::Client c;
  cluster.connect(c, lnode);
  // Sequential appends: one slot each, well past twice the ring.
  std::uint64_t last = 0;
  for (std::uint64_t i = 0; i < 3 * kRingRows; ++i) {
    const auto r = c.append_retry(kGid, /*client=*/2, 1 + i, 600 + i, 15000);
    ASSERT_TRUE(r.ok()) << "append " << i << " status "
                        << static_cast<int>(r.status);
    last = r.index;
  }
  EXPECT_GT(last, 2 * kRingRows);
}

TEST(MultiNodeSmr, FrozenFollowerHoldsSealingNoLongerThanAckStall) {
  Cluster cluster(small_ring());
  const ProcessId leader = cluster.await_leader(120);
  ASSERT_NE(leader, kNoProcess);
  const std::uint32_t lnode = cluster.topo().node_of(leader);
  append_until_committed(cluster, /*client=*/1, /*seq=*/1, 500, 120);
  net::Client c;
  cluster.connect(c, lnode);
  cluster.freeze((lnode + 1) % 3);
  // The frozen follower keeps its streams connected: it is waited for
  // until its acks have stalled for MirrorConfig::ack_stall_us (3 s).
  auto slowest = std::chrono::steady_clock::duration::zero();
  std::uint64_t last = 0;
  for (std::uint64_t i = 0; i < 3 * kRingRows; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = c.append_retry(kGid, /*client=*/2, 1 + i, 600 + i, 30000);
    ASSERT_TRUE(r.ok()) << "append " << i << " status "
                        << static_cast<int>(r.status);
    slowest = std::max(slowest, std::chrono::steady_clock::now() - t0);
    last = r.index;
  }
  EXPECT_GT(last, 2 * kRingRows);
  EXPECT_LT(slowest, std::chrono::seconds(3) + std::chrono::seconds(3))
      << "a frozen follower held sealing back past its ack stall";
}

std::int64_t scrape_counter(net::Client& c, const char* name) {
  const auto m = c.metrics();
  EXPECT_TRUE(m.ok());
  for (const auto& s : m.metrics) {
    if (s.name == name) return s.value;
  }
  ADD_FAILURE() << name << " not scraped";
  return 0;
}

TEST(MultiNodeSmr, IdleLeaseLeaderSweepsAtItsPace) {
  // A lease-holding leader sweeps at pace_us even when idle (its lease
  // heartbeats keep their cadence), and mirror acks of its own register
  // writes must not wake it on top of that: with quorum_ack on, only
  // acknowledgements it holds make an ack worth a sweep.
  ClusterOptions opts;
  opts.durable = true;
  opts.spec.lease_ttl_us = 400000;
  opts.spec.lease_skew_us = 20000;
  opts.tick_us = 20000;  // monitor timeouts well above the 2 ms pace
  opts.pace_us = 2000;
  opts.max_pace_us = 2000;
  Cluster cluster(opts);
  const ProcessId leader = cluster.await_leader(120);
  ASSERT_NE(leader, kNoProcess);
  append_until_committed(cluster, /*client=*/1, /*seq=*/1, 500, 120);
  net::Client c;
  cluster.connect(c, cluster.topo().node_of(leader));
  const std::int64_t s0 = scrape_counter(c, "svc.sweeps");
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const std::int64_t s1 = scrape_counter(c, "svc.sweeps");
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const double rate = static_cast<double>(s1 - s0) / secs;
  EXPECT_GT(rate, 0.0);
  EXPECT_LT(rate, 1.25e6 / static_cast<double>(opts.pace_us))
      << "idle leader sweeps faster than its pace allows";
}

}  // namespace
}  // namespace omega::smr
