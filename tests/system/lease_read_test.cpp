// Lease safety across a real partition: three OS processes with leases
// enabled, SIGSTOP freezes the leader (the classic "partitioned but not
// dead" box), the survivors elect a new leader and commit past it, then
// SIGCONT lets the ex-leader run again. A READ that was already sitting
// in the frozen leader's socket buffer must never take the lease path:
// served while the cached view still says "I lead" at the OLD epoch it
// MUST come back kNotLeader (the lease is time-expired and a lapsed
// holder may not revive it). Only a node that has already learned the
// new view may answer it, as a follower past the new leader's fence.
// After the mirror rejoin, reads with the new session floor must answer
// with the post-partition state, never the stale one.
//
// fork() happens before any thread exists (gtest runs each TEST in its
// own process), so the children may build the full threaded runtime.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>

#include <chrono>
#include <thread>
#include <vector>

#include "net/client.h"
#include "smr/node.h"

namespace omega::smr {
namespace {

/// Picks `n` DISTINCT free ports by holding every probe socket open until
/// all are bound (closing between picks lets the kernel hand the same
/// ephemeral port out twice, and a node then dies on EADDRINUSE).
std::vector<std::uint16_t> pick_free_ports(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    ports.push_back(ntohs(addr.sin_port));
    fds.push_back(fd);
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

constexpr svc::GroupId kGid = 61;
// The TTL must be comfortably SHORTER than the enforced freeze below:
// lease safety is conditional on ttl < detection + election time, and
// the test makes that premise true by construction before resuming.
constexpr std::int64_t kLeaseTtlUs = 400000;

NodeTopology make_topology() {
  const auto ports = pick_free_ports(6);
  NodeTopology topo;
  for (std::uint32_t i = 0; i < 3; ++i) {
    topo.nodes.push_back(
        NodeEndpoint{i, "127.0.0.1", ports[2 * i], ports[2 * i + 1]});
  }
  return topo;
}

SmrSpec test_spec() {
  SmrSpec spec;
  spec.n = 3;
  spec.capacity = 512;
  spec.window = 4;
  spec.max_batch = 8;
  spec.lease_ttl_us = kLeaseTtlUs;
  spec.lease_skew_us = 20000;
  return spec;
}

[[noreturn]] void run_node(const NodeTopology& base, std::uint32_t self) {
  try {
    NodeTopology topo = base;
    topo.self = self;
    svc::SvcConfig scfg;
    scfg.workers = 1;
    scfg.tick_us = 1000;
    scfg.pace_us = 200;
    scfg.max_pace_us = 2000;
    SmrNode node(topo, scfg);
    node.add_log(kGid, test_spec());
    node.start();
    for (;;) {
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
  Cluster() : topo_(make_topology()) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      const pid_t pid = fork();
      if (pid == 0) run_node(topo_, i);
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
  }

  const NodeTopology& topo() const { return topo_; }

  /// Returns once the node is stopped: kill() only queues the signal, and
  /// a request sent before the stop lands would be served pre-freeze.
  void freeze(std::uint32_t node) {
    ::kill(pids_[node], SIGSTOP);
    int status = 0;
    ::waitpid(pids_[node], &status, WUNTRACED);
    frozen_ = node;
  }
  void thaw(std::uint32_t node) {
    ::kill(pids_[node], SIGCONT);
    frozen_ = ~0u;
  }

  void connect(net::Client& c, std::uint32_t node, int deadline_s = 60) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(deadline_s);
    for (;;) {
      try {
        c.connect("127.0.0.1", topo_.nodes[node].serve_port, 2000);
        return;
      } catch (const net::NetError&) {
        if (std::chrono::steady_clock::now() >= deadline) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
  }

  /// Leader as reported by a live (unfrozen) node, skipping frozen boxes
  /// and leaders hosted on them. kNoProcess on timeout.
  ProcessId await_leader(int deadline_s) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(deadline_s);
    while (std::chrono::steady_clock::now() < deadline) {
      for (std::uint32_t node = 0; node < 3; ++node) {
        if (node == frozen_) continue;
        try {
          net::Client c;
          connect(c, node, 5);
          const auto r = c.leader(kGid);
          if (r.ok() && r.view.leader != kNoProcess &&
              topo_.node_of(r.view.leader) != frozen_) {
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
  std::vector<pid_t> pids_;
  std::uint32_t frozen_ = ~0u;
};

/// Appends through whichever node leads; `via` (if given) receives the
/// leader that committed it.
void append_until_committed(Cluster& cluster, std::uint64_t client,
                            std::uint64_t seq, std::uint64_t cmd,
                            int deadline_s, ProcessId* via = nullptr) {
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
      if (r.ok()) {
        if (via != nullptr) *via = leader;
        return;
      }
      std::fprintf(stderr, "append %llu via node %u: status %d\n",
                   static_cast<unsigned long long>(cmd), node,
                   static_cast<int>(r.status));
    } catch (const net::NetError& e) {
      std::fprintf(stderr, "append %llu via node %u: net error %s\n",
                   static_cast<unsigned long long>(cmd), node, e.what());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  FAIL() << "append of " << cmd << " did not commit in " << deadline_s << "s";
}

TEST(LeaseRead, PartitionedExLeaderRefusesItsStaleLease) {
  Cluster cluster;

  // Phase 1: elect, commit key 600 at position 0, and wait until the
  // leader serves it on the memory-speed lease path.
  const ProcessId old_leader = cluster.await_leader(120);
  ASSERT_NE(old_leader, kNoProcess);
  append_until_committed(cluster, /*client=*/1, /*seq=*/1, /*cmd=*/600, 120);
  const std::uint32_t old_node = cluster.topo().node_of(old_leader);
  net::Client reader;
  cluster.connect(reader, old_node);
  std::uint64_t old_epoch = 0;
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    for (;;) {
      // The leader may briefly bounce between processes while Ω settles;
      // follow it until a lease read lands (the node we hold the
      // connection to may answer as a follower meanwhile).
      const auto r = reader.read(kGid, /*key=*/600, /*min_index=*/0, 15000);
      if (r.status == net::Status::kLeaseRead) {
        EXPECT_EQ(r.index, 1u);
        old_epoch = r.view.epoch;
        break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "lease never became valid at the leader (last status "
          << static_cast<int>(r.status) << ")";
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  // Re-resolve: the lease answer is the authority on who leads now.
  const std::uint32_t frozen_node = old_node;

  // Phase 2: freeze the leader. The probe READ is sent while it is
  // frozen, so the request is already in its socket buffer when it
  // resumes. Its floor of 2 (the length once key 700 commits below) does
  // not bind the leader paths, and makes any follower answer wait for
  // the post-partition state.
  cluster.freeze(frozen_node);
  const auto t_freeze = std::chrono::steady_clock::now();
  const std::uint64_t probe_id =
      reader.read_async(kGid, /*key=*/600, /*min_index=*/2);

  // Phase 3: the survivors elect a new leader and commit key 700 at
  // position 1 — state the frozen box has never seen.
  ProcessId new_leader = kNoProcess;
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(180);
    for (;;) {
      new_leader = cluster.await_leader(180);
      ASSERT_NE(new_leader, kNoProcess) << "no failover leader";
      if (cluster.topo().node_of(new_leader) != frozen_node) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "survivors kept naming the frozen leader";
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  append_until_committed(cluster, /*client=*/2, /*seq=*/1, /*cmd=*/700, 180,
                         &new_leader);

  // Make the premise of lease safety true by construction: hold the
  // freeze until the old lease is long past its TTL on the wall clock
  // (CLOCK_MONOTONIC keeps running while a process is stopped).
  const auto min_freeze = std::chrono::microseconds(3 * kLeaseTtlUs);
  const auto elapsed = std::chrono::steady_clock::now() - t_freeze;
  if (elapsed < min_freeze) {
    std::this_thread::sleep_for(min_freeze - elapsed);
  }

  // Phase 4: resume. A buffered probe served under the ex-leader's stale
  // "I lead" view must be REFUSED: the lease is time-expired (no quorum
  // ack landed during the freeze) and a lapsed holder may not revive it.
  // Its IO thread and its mirror thread resume together, so the queued
  // pushes of the survivors may teach the node the new view first. Only
  // then may it answer, as a follower: under the new leader, at a newer
  // epoch, and past position 1 that the frozen box never saw.
  cluster.thaw(frozen_node);
  const auto probe = reader.next_read_result(/*timeout_ms=*/120000);
  ASSERT_TRUE(probe.has_value()) << "probe read lost";
  EXPECT_EQ(probe->req_id, probe_id);
  const auto& pr = probe->result;
  if (pr.status == net::Status::kIndexRead) {
    EXPECT_EQ(pr.view.leader, new_leader)
        << "follower answer off the new leader's fence";
    EXPECT_GT(pr.view.epoch, old_epoch);
    EXPECT_GE(pr.commit_index, 2u) << "follower answer from stale state";
    EXPECT_EQ(pr.index, 1u);
  } else {
    EXPECT_EQ(pr.status, net::Status::kNotLeader)
        << "ex-leader must refuse its stale lease, got status "
        << static_cast<int>(pr.status);
  }

  // Phase 5: after the rejoin, reads at the ex-leader with the new
  // session floor (position 1 committed => floor 2) must answer with the
  // post-partition state — kIndexRead once its apply passes the fence,
  // or kLeaseRead only under a lease re-acquired at a NEWER epoch. A
  // stale answer (index != 2 for key 700, or a lease at the old epoch)
  // is the safety violation this test exists to catch.
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    bool answered = false;
    while (!answered) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "ex-leader never served the post-partition state";
      const auto r = reader.read(kGid, /*key=*/700, /*min_index=*/2, 15000);
      if (r.ok()) {
        EXPECT_EQ(r.index, 2u) << "stale read of key 700 (status "
                               << static_cast<int>(r.status) << ")";
        if (r.status == net::Status::kLeaseRead) {
          EXPECT_GT(r.view.epoch, old_epoch)
              << "a lease read after failover must carry a newer epoch";
        }
        answered = true;
      } else {
        ASSERT_TRUE(r.status == net::Status::kNotLeader ||
                    r.status == net::Status::kOverloaded)
            << "unexpected status " << static_cast<int>(r.status);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
  }
}

}  // namespace
}  // namespace omega::smr
