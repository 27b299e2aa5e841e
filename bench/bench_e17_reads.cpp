// E17 — linearizable reads at memory speed: epoch-fenced leader leases
// plus follower read-index, measured on the same 3-OS-process topology as
// E16. E15/E16 priced the WRITE path; this experiment prices the READ
// path the lease machinery unlocks: point reads answered on the server's
// IO thread from the apply-time hash index — no consensus, no owner-thread
// hop — under a quorum-confirmed, epoch-fenced lease (leader) or behind a
// mirror-published commit fence (followers), so all three processes are
// read capacity.
//
// Measured:
//   1. the B=64 write sweep still holds E15's >= 80k appends/s gate on
//      the cross-process cluster (the read path must not tax writes);
//   2. point-read storm — raw v1.6 READ frames batched ~1k per syscall
//      against all three nodes while a background appender keeps the log
//      moving: >= 1M answered reads/s aggregate, split into lease reads
//      (leader) vs read-index reads (followers);
//   3. fence-wait — append on the leader, immediately read the same key
//      on a follower with min_index = the fresh index: the follower
//      parks the read until its applied state passes the fence
//      (smr.fence_wait_ns p99 scraped over v1.3 METRICS);
//   4. SIGKILL the leader mid-traffic — survivors keep answering, and NO
//      stale read is ever served: every answered index respects the
//      per-key maximum observed before the kill, cross-checked against
//      the survivors' full logs after failover.
//
// The parent is a pure wire-protocol client; fork() happens before any
// thread exists, so the children can build the full threaded runtime.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "net/client.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "smr/node.h"

namespace {

using namespace omega;
using namespace omega::bench;

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr svc::GroupId kGid = 17;
constexpr std::uint32_t kNodes = 3;

// Write sweep: E15's B=64 acceptance row, run cross-process.
constexpr std::uint64_t kWriteTarget = 48000;
constexpr std::uint32_t kWriteConns = 64;
constexpr std::uint32_t kWriteDepth = 8;

// Read storm: raw-frame readers, one per node, kBatch requests per
// write() syscall over a key pool drawn from the applied log.
constexpr std::size_t kBatch = 1024;
constexpr std::size_t kPool = 1024;
constexpr std::int64_t kStormNs = 4'000'000'000;

// v1.6 wire geometry the raw readers rely on (asserted at startup
// against the real encoder): a canonical READ request is 40 bytes on the
// wire, every READ response is exactly 60.
constexpr std::size_t kReqBytes = 4 + net::kHeaderBytes + 24;
constexpr std::size_t kRespBytes = 4 + net::kHeaderBytes + 44;

std::vector<std::uint16_t> pick_free_ports(std::size_t n) {
  // All probe sockets stay open until every port is picked: closing one
  // early lets the kernel hand the same port to the next probe, and two
  // nodes then race to bind it (a real flake this harness had).
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    OMEGA_CHECK(fd >= 0, "socket: errno " << errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    OMEGA_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
                    0,
                "bind: errno " << errno);
    socklen_t len = sizeof addr;
    OMEGA_CHECK(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
                    0,
                "getsockname");
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

smr::SmrSpec bench_spec() {
  smr::SmrSpec spec;
  spec.n = 3;
  spec.capacity = 65536;
  spec.window = 16;
  spec.max_batch = 64;
  spec.max_pending = 8192;
  // E17 prices the READ path; its write gate is E15's original B=64
  // TCP-path gate, so the sweep runs without the WAL/quorum-ack tax —
  // E16 owns cross-process durability pricing. (No node restarts here:
  // the SIGKILL phase only needs the survivors' in-memory state.)
  spec.quorum_ack = false;
  // The lease under test: 400ms ttl, 20ms assumed clock skew. Heartbeats
  // ride the 50ms mirror ticks, so a healthy leader renews ~8x per ttl;
  // an epoch change or stale quorum acks drop it immediately.
  spec.lease_ttl_us = 400000;
  spec.lease_skew_us = 20000;
  return spec;
}

[[noreturn]] void run_node(const smr::NodeTopology& base,
                           std::uint32_t self) {
  try {
    smr::NodeTopology topo = base;
    topo.self = self;
    svc::SvcConfig scfg;
    scfg.workers = 1;
    scfg.tick_us = 100000;
    scfg.wheel_slot_us = 4096;
    scfg.ops_per_sweep = 128;
    scfg.pace_us = 50;
    scfg.max_pace_us = 2000;
    scfg.worker_nice = 10;
    smr::SmrNode node(topo, scfg, {});
    node.add_log(kGid, bench_spec());
    node.start();
    for (;;) ::pause();
  } catch (const std::exception& e) {
    fprintf(stderr, "node %u died at startup: %s\n", self, e.what());
    _exit(1);
  } catch (...) {
    _exit(1);
  }
  _exit(0);
}

struct Cluster {
  smr::NodeTopology topo;
  std::vector<pid_t> pids;

  bool alive(std::uint32_t node) const { return pids[node] > 0; }

  pid_t spawn(std::uint32_t node) {
    const pid_t pid = fork();
    if (pid == 0) run_node(topo, node);
    return pid;
  }

  void kill_node(std::uint32_t node) {
    ::kill(pids[node], SIGKILL);
    ::waitpid(pids[node], nullptr, 0);
    pids[node] = -1;
  }

  ~Cluster() {
    for (const pid_t pid : pids) {
      if (pid > 0) ::kill(pid, SIGKILL);
    }
    for (const pid_t pid : pids) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
  }
};

void connect_retry(Cluster& cluster, net::Client& c, std::uint32_t node,
                   int deadline_s) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(deadline_s);
  for (;;) {
    try {
      c.connect("127.0.0.1", cluster.topo.nodes[node].serve_port, 2000);
      return;
    } catch (const net::NetError&) {
      OMEGA_CHECK(std::chrono::steady_clock::now() < deadline,
                  "node " << node << " unreachable");
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
}

ProcessId await_cluster_leader(Cluster& cluster, int deadline_s) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(deadline_s);
  while (std::chrono::steady_clock::now() < deadline) {
    for (std::uint32_t node = 0; node < kNodes; ++node) {
      if (!cluster.alive(node)) continue;
      try {
        net::Client c;
        connect_retry(cluster, c, node, 5);
        const auto r = c.leader(kGid);
        if (r.ok() && r.view.leader != kNoProcess &&
            cluster.alive(cluster.topo.node_of(r.view.leader))) {
          return r.view.leader;
        }
      } catch (const net::NetError&) {
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return kNoProcess;
}

struct LoadResult {
  double qps = 0;
  std::int64_t ack_p50_ns = 0;
  std::int64_t ack_p99_ns = 0;
  std::uint64_t committed = 0;
  std::uint64_t not_leader = 0;
  std::uint64_t bad = 0;
};

/// E15's pipelined closed loop, pointed at the leader node's TCP port.
LoadResult run_appenders(std::uint16_t port, std::uint64_t target,
                         int deadline_ms) {
  struct Conn {
    struct Out {
      std::uint64_t req_id = 0;
      std::int64_t sent_ns = 0;
    };
    net::Client client;
    std::uint64_t id = 0;
    std::uint64_t next_seq = 1;
    std::vector<Out> outstanding;
  };
  std::vector<Conn> conns(kWriteConns);
  std::vector<pollfd> pfds(kWriteConns);
  for (std::uint32_t i = 0; i < kWriteConns; ++i) {
    conns[i].client.connect("127.0.0.1", port);
    conns[i].id = 1000 + i;
    pfds[i] = pollfd{conns[i].client.native_handle(), POLLIN, 0};
  }
  std::vector<std::int64_t> lat;
  lat.reserve(target);
  LoadResult result;
  const std::int64_t t0 = wall_ns();
  const std::int64_t deadline = t0 + std::int64_t{deadline_ms} * 1000000;

  auto top_up = [&](Conn& c) {
    while (c.outstanding.size() < kWriteDepth) {
      const std::uint64_t seq = c.next_seq++;
      const std::uint64_t cmd = 1 + ((c.id * 131 + seq) % 65533);
      const std::int64_t now = wall_ns();
      c.outstanding.push_back(
          Conn::Out{c.client.append_async(kGid, c.id, seq, cmd), now});
    }
  };
  for (auto& c : conns) top_up(c);

  while (result.committed < target && wall_ns() < deadline) {
    if (::poll(pfds.data(), pfds.size(), 50) <= 0) continue;
    const std::int64_t now = wall_ns();
    for (std::uint32_t i = 0; i < kWriteConns; ++i) {
      if (!(pfds[i].revents & POLLIN)) continue;
      Conn& c = conns[i];
      for (;;) {
        const auto a = c.client.next_append_result(0);
        if (!a.has_value()) break;
        std::int64_t sent = 0;
        for (auto it = c.outstanding.begin(); it != c.outstanding.end();
             ++it) {
          if (it->req_id == a->req_id) {
            sent = it->sent_ns;
            *it = c.outstanding.back();
            c.outstanding.pop_back();
            break;
          }
        }
        if (a->result.status == net::Status::kOk) {
          lat.push_back(now - sent);
          ++result.committed;
        } else if (a->result.status == net::Status::kNotLeader) {
          ++result.not_leader;
        } else {
          ++result.bad;
        }
      }
      top_up(c);
    }
  }
  const std::int64_t t1 = wall_ns();
  result.qps = static_cast<double>(result.committed) /
               (static_cast<double>(t1 - t0) / 1e9);
  result.ack_p50_ns = percentile_ns(lat, 0.50);
  result.ack_p99_ns = percentile_ns(lat, 0.99);
  return result;
}

// ------------------------------------------------------------ raw reads ---

bool send_all(int fd, const std::uint8_t* buf, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, buf + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool recv_all(int fd, std::uint8_t* buf, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd, buf + off, len - off, 0);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

int dial_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  OMEGA_CHECK(fd >= 0, "socket: errno " << errno);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  OMEGA_CHECK(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
      "connect: errno " << errno);
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// One reader's tally. Readers parse responses at fixed 60-byte stride —
/// a READ-only connection carries nothing else — and check per-key index
/// monotonicity within their own session as they go.
struct ReaderStats {
  std::uint64_t lease = 0;     ///< kLeaseRead (leader, lease valid)
  std::uint64_t index = 0;     ///< kIndexRead (follower past the fence)
  std::uint64_t fallback = 0;  ///< kOk (committed-read slow path)
  std::uint64_t refused = 0;   ///< kNotLeader
  std::uint64_t other = 0;
  std::uint64_t mono_violations = 0;
  bool io_error = false;
  std::vector<std::uint64_t> last;  ///< per pool slot: highest index seen
};

/// Batched storm against one node: kBatch pre-encoded READ requests per
/// send(), then exactly kBatch 60-byte responses back. Request j of every
/// batch reads pool[j] and carries req_id=j; responses are matched by the
/// echoed req_id because the server does NOT preserve order — a follower
/// defers reads that sit behind the fence and answers later ones first.
void read_storm(int fd, const std::vector<std::uint64_t>& pool,
                std::int64_t until_ns, ReaderStats& out) {
  std::vector<std::uint8_t> req;
  req.reserve(kBatch * kReqBytes);
  for (std::size_t j = 0; j < kBatch; ++j) {
    net::ReadReqBody body;
    body.gid = kGid;
    body.key = pool[j % pool.size()];
    body.min_index = 0;
    net::encode_fixed(req, net::MsgType::kRead, net::Status::kOk, /*req_id=*/j,
                      body);
  }
  OMEGA_CHECK(req.size() == kBatch * kReqBytes,
              "canonical READ request is not " << kReqBytes << "B on the wire");
  std::vector<std::uint8_t> resp(kBatch * kRespBytes);
  out.last.assign(pool.size(), 0);
  while (wall_ns() < until_ns) {
    if (!send_all(fd, req.data(), req.size()) ||
        !recv_all(fd, resp.data(), resp.size())) {
      out.io_error = true;
      return;
    }
    for (std::size_t j = 0; j < kBatch; ++j) {
      const std::uint8_t* f = resp.data() + j * kRespBytes;
      // len(4) | magic ver type status req_id(8) | body. Length and type
      // are asserted (cheaply) so a framing slip fails loudly instead of
      // feeding garbage indices into the monotonicity check.
      std::uint32_t len;
      std::memcpy(&len, f, 4);
      if (len != kRespBytes - 4 ||
          f[6] != static_cast<std::uint8_t>(net::MsgType::kRead)) {
        out.io_error = true;
        return;
      }
      const auto status = static_cast<net::Status>(f[7]);
      std::uint64_t req_id;
      std::memcpy(&req_id, f + 8, 8);
      if (req_id >= kBatch) {
        out.io_error = true;
        return;
      }
      std::uint64_t idx;
      std::memcpy(&idx, f + 4 + net::kHeaderBytes + 16, 8);
      bool answered = true;
      switch (status) {
        case net::Status::kLeaseRead:
          ++out.lease;
          break;
        case net::Status::kIndexRead:
          ++out.index;
          break;
        case net::Status::kOk:
          ++out.fallback;
          break;
        case net::Status::kNotLeader:
          ++out.refused;
          answered = false;
          break;
        default:
          ++out.other;
          answered = false;
          break;
      }
      if (answered) {
        const std::size_t slot = static_cast<std::size_t>(req_id) % pool.size();
        if (idx < out.last[slot]) ++out.mono_violations;
        if (idx > out.last[slot]) out.last[slot] = idx;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = json_path_from_args(argc, argv);
  const bool perf_advisory =
      std::getenv("OMEGA_E17_PERF_ADVISORY") != nullptr;

  std::cout << banner(
      "E17: linearizable reads — leases + follower read-index",
      {"topology: 3 OS processes x 1 replica, localhost TCP, v1.6 READ",
       "measure : B=64 write sweep (E15 gate), point-read storm on all",
       "          nodes (lease vs read-index), fence-wait p99, SIGKILL",
       "          with zero stale reads across failover"});

  Verdict verdict;
  JsonReport json;

  std::string artifact_dir = ".";
  {
    const auto slash = json_path.rfind('/');
    if (slash != std::string::npos) artifact_dir = json_path.substr(0, slash);
    ::setenv("OMEGA_TRACE_DIR", artifact_dir.c_str(), /*overwrite=*/0);
  }

  Cluster cluster;
  const std::vector<std::uint16_t> ports = pick_free_ports(2 * kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    cluster.topo.nodes.push_back(
        smr::NodeEndpoint{i, "127.0.0.1", ports[2 * i], ports[2 * i + 1]});
  }
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    cluster.pids.push_back(cluster.spawn(i));
  }

  // --- phase A: election across processes. ---------------------------------
  const std::int64_t elect_t0 = wall_ns();
  const ProcessId leader = await_cluster_leader(cluster, 120);
  verdict.expect(leader != kNoProcess,
                 "three processes must elect a leader over the mirror");
  const double elect_ms = static_cast<double>(wall_ns() - elect_t0) / 1e6;
  const std::uint32_t leader_node = cluster.topo.node_of(leader);
  std::cout << "  leader: replica " << leader << " on node " << leader_node
            << " after " << fmt_double(elect_ms, 1) << " ms\n\n";
  json.set("election_ms", elect_ms);

  // --- phase B: the E15 write gate, cross-process. -------------------------
  const LoadResult load =
      run_appenders(cluster.topo.nodes[leader_node].serve_port, kWriteTarget,
                    /*deadline_ms=*/90000);
  AsciiTable wtable({"write sweep (B=64)", "value"});
  wtable.add_row({"appends/sec",
                  fmt_count(static_cast<std::uint64_t>(load.qps))});
  wtable.add_row({"committed", fmt_count(load.committed)});
  wtable.add_row({"ack p50 / p99 (ms)",
                  fmt_double(static_cast<double>(load.ack_p50_ns) / 1e6, 2) +
                      " / " +
                      fmt_double(static_cast<double>(load.ack_p99_ns) / 1e6,
                                 2)});
  std::cout << wtable.render() << '\n';
  verdict.expect(load.bad == 0, "every append answered ok or not-leader");
  const std::string wgate =
      ">= 80k appends/s at B=64 with the read path built in (got " +
      fmt_count(static_cast<std::uint64_t>(load.qps)) + "/s, " +
      fmt_count(load.committed) + "/" + fmt_count(kWriteTarget) + ")";
  if (perf_advisory) {
    if (load.qps < 80000.0 || load.committed < kWriteTarget) {
      std::cout << "  [ADVISORY] " << wgate << '\n';
    }
  } else {
    verdict.expect(load.qps >= 80000.0 && load.committed >= kWriteTarget,
                   wgate);
  }
  json.set("appends_per_sec", load.qps);
  json.set("committed", load.committed);
  json.set("ack_p50_ms", static_cast<double>(load.ack_p50_ns) / 1e6);
  json.set("ack_p99_ms", static_cast<double>(load.ack_p99_ns) / 1e6);

  if (std::getenv("OMEGA_E17_WRITE_ONLY") != nullptr) {
    json.set_str("bench", "e17_reads");
    json.write(json_path);
    return verdict.finish("write sweep only (OMEGA_E17_WRITE_ONLY)");
  }

  // --- phase C: point-read storm on every node. ----------------------------
  // The key pool is drawn from the log actually applied in phase B, via
  // the v1.1 pagination helper — reads hit live apply-time index state,
  // not hand-picked keys.
  std::vector<std::uint64_t> pool;
  {
    net::Client c;
    connect_retry(cluster, c, leader_node, 30);
    const auto log = c.read_log_all(kGid);
    verdict.expect(log.status == net::Status::kOk && !log.entries.empty(),
                   "the applied log must page back through read_log_all");
    std::unordered_map<std::uint64_t, bool> seen;
    for (const std::uint64_t v : log.entries) {
      if (pool.size() >= kPool) break;
      if (!seen.emplace(v, true).second) continue;
      pool.push_back(v);
    }
  }
  OMEGA_CHECK(!pool.empty(), "no applied keys to read");

  // Background writer: the storm is a MIXED workload — appends keep
  // committing under the readers. Commands live in the 16-bit consensus
  // value range, so collisions with pool keys are possible — harmless:
  // a re-appended key's index only moves FORWARD, which is exactly what
  // the monotonicity check allows.
  std::atomic<bool> bg_stop{false};
  std::atomic<std::uint64_t> bg_committed{0};
  std::thread bg_writer([&] {
    net::Client c;
    bool connected = false;
    std::uint64_t seq = 1;
    while (!bg_stop.load(std::memory_order_relaxed)) {
      try {
        if (!connected) {
          connect_retry(cluster, c, leader_node, 10);
          connected = true;
        }
        const auto r =
            c.append_retry(kGid, /*client=*/2000, seq, 1 + (seq % 65533), 2000);
        if (r.ok()) {
          bg_committed.fetch_add(1, std::memory_order_relaxed);
          ++seq;
        } else {
          fprintf(stderr, "  [bg] append status %u\n",
                  static_cast<unsigned>(r.status));
          ++seq;
        }
      } catch (const net::NetError&) {
        // Starved under the storm — redial and keep pressing.
        c.close();
        connected = false;
      }
    }
  });

  std::vector<int> fds;
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    fds.push_back(dial_raw(cluster.topo.nodes[node].serve_port));
  }
  std::vector<ReaderStats> stats(kNodes);
  const std::int64_t storm_t0 = wall_ns();
  {
    std::vector<std::thread> readers;
    for (std::uint32_t node = 0; node < kNodes; ++node) {
      readers.emplace_back([&, node] {
        read_storm(fds[node], pool, storm_t0 + kStormNs, stats[node]);
      });
    }
    for (auto& t : readers) t.join();
  }
  const double storm_s =
      static_cast<double>(wall_ns() - storm_t0) / 1e9;
  bg_stop.store(true, std::memory_order_relaxed);
  bg_writer.join();
  for (const int fd : fds) ::close(fd);

  std::uint64_t lease_reads = 0, index_reads = 0, fallback_reads = 0;
  std::uint64_t refused_reads = 0, other_reads = 0, mono_violations = 0;
  bool reader_io_error = false;
  for (const ReaderStats& s : stats) {
    lease_reads += s.lease;
    index_reads += s.index;
    fallback_reads += s.fallback;
    refused_reads += s.refused;
    other_reads += s.other;
    mono_violations += s.mono_violations;
    reader_io_error = reader_io_error || s.io_error;
  }
  const std::uint64_t answered = lease_reads + index_reads + fallback_reads;
  const double reads_per_s = static_cast<double>(answered) / storm_s;
  const double bg_per_s =
      static_cast<double>(bg_committed.load()) / storm_s;

  AsciiTable rtable({"read storm (all 3 nodes)", "value"});
  rtable.add_row({"answered reads/sec",
                  fmt_count(static_cast<std::uint64_t>(reads_per_s))});
  rtable.add_row({"lease reads (leader)", fmt_count(lease_reads)});
  rtable.add_row({"read-index reads (followers)", fmt_count(index_reads)});
  rtable.add_row({"fallback committed reads", fmt_count(fallback_reads)});
  rtable.add_row({"refused (NotLeader)", fmt_count(refused_reads)});
  rtable.add_row({"background appends/sec",
                  fmt_count(static_cast<std::uint64_t>(bg_per_s))});
  std::cout << rtable.render() << '\n';

  verdict.expect(!reader_io_error,
                 "raw readers must survive the storm (no framing slip, no "
                 "server-side close)");
  verdict.expect(other_reads == 0, "no unexpected READ status in the storm");
  verdict.expect(lease_reads > 0,
                 "the leader must answer lease reads under load");
  verdict.expect(index_reads > 0,
                 "the followers must answer read-index reads — all three "
                 "processes are read capacity");
  verdict.expect(mono_violations == 0,
                 "per-key indices must be monotone within every session");
  verdict.expect(bg_committed.load() > 0,
                 "appends must keep committing under the read storm");
  const std::string rgate = ">= 1M answered point reads/s aggregate (got " +
                            fmt_count(static_cast<std::uint64_t>(
                                reads_per_s)) +
                            "/s)";
  if (perf_advisory) {
    if (reads_per_s < 1e6) std::cout << "  [ADVISORY] " << rgate << '\n';
  } else {
    verdict.expect(reads_per_s >= 1e6, rgate);
  }
  json.set("reads_per_s", reads_per_s);
  json.set("lease_reads", lease_reads);
  json.set("index_reads", index_reads);
  json.set("fallback_reads", fallback_reads);
  json.set("read_not_leader", refused_reads);
  json.set("mono_violations", mono_violations);
  json.set("bg_appends_per_s", bg_per_s);

  // --- phase D: fence-wait — read-your-writes on a follower. ---------------
  // Append on the leader, then read the fresh key on a follower with
  // min_index = the acked index: the follower may not answer until its
  // applied state passes that fence, so each round trips the park/wake
  // path the fence_wait histogram times.
  // The storm may have starved ticks enough to move leadership — route
  // the fence appends at whoever leads NOW.
  const ProcessId post_storm_leader = await_cluster_leader(cluster, 120);
  verdict.expect(post_storm_leader != kNoProcess,
                 "a leader must hold (or re-emerge) after the storm");
  const std::uint32_t write_node =
      post_storm_leader != kNoProcess ? cluster.topo.node_of(post_storm_leader)
                                      : leader_node;
  const std::uint32_t follower_node = (write_node + 1) % kNodes;
  double fence_wait_p99_us = 0;
  {
    net::Client w;
    net::Client r;
    connect_retry(cluster, w, write_node, 30);
    connect_retry(cluster, r, follower_node, 30);
    std::uint64_t fence_reads = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
      net::Client::AppendResult a;
      try {
        a = w.append_retry(kGid, /*client=*/3000, i + 1, 60000 + i, 10000);
      } catch (const net::NetError& e) {
        fprintf(stderr, "  [fence] append %llu: %s\n",
                static_cast<unsigned long long>(i), e.what());
        w.close();
        connect_retry(cluster, w, write_node, 30);
        continue;
      }
      if (!a.ok()) {
        if (i < 5) {
          fprintf(stderr, "  [fence] append %llu status %u\n",
                  static_cast<unsigned long long>(i),
                  static_cast<unsigned>(a.status));
        }
        continue;
      }
      for (int attempt = 0; attempt < 50; ++attempt) {
        // Append acks carry the 0-based applied position; the read
        // index (and the follower fence) are position + 1.
        const auto rr =
            r.read(kGid, 60000 + i, /*min_index=*/a.index + 1, 5000);
        if (rr.ok()) {
          verdict.expect(rr.index == a.index + 1,
                         "a fenced follower read must return the acked "
                         "position");
          ++fence_reads;
          break;
        }
      }
    }
    verdict.expect(fence_reads > 0,
                   "fenced follower reads must eventually be answered");
    json.set("fence_reads", fence_reads);

    const auto m = r.metrics();
    verdict.expect(m.ok(), "the follower must answer the METRICS scrape");
    if (const obs::MetricSample* s = m.find("smr.fence_wait_ns")) {
      fence_wait_p99_us = static_cast<double>(s->quantile(0.99)) / 1e3;
    }
    std::cout << "  fence-wait p99 (follower " << follower_node
              << "): " << fmt_double(fence_wait_p99_us, 1) << " us over "
              << fmt_count(fence_reads) << " fenced reads\n";
  }
  json.set("fence_wait_p99_us", fence_wait_p99_us);

  // --- phase E: SIGKILL the leader; zero stale reads across failover. ------
  // Freeze the storm's per-key maxima (the threads joined above — a real
  // happens-before barrier), then kill the leader and keep reading from
  // the survivors throughout the election. Every ANSWERED read must
  // respect those maxima: the lease died with the process, the new
  // leader's epoch fences the old one, and follower fences only move
  // forward — an index below the snapshot is a stale read, and the gate
  // is zero.
  std::vector<std::uint64_t> snapshot(pool.size(), 0);
  for (const ReaderStats& s : stats) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      snapshot[i] = std::max(snapshot[i], s.last[i]);
    }
  }

  std::cout << "\n  SIGKILL node " << write_node << " (the current leader's "
            << "node) ...\n";
  cluster.kill_node(write_node);
  const std::int64_t crash_t0 = wall_ns();

  std::atomic<bool> probe_stop{false};
  std::atomic<std::uint64_t> probe_answered{0};
  std::atomic<std::uint64_t> probe_stale{0};
  std::thread prober([&] {
    std::size_t slot = 0;
    std::uint32_t target = (write_node + 1) % kNodes;
    net::Client c;
    bool connected = false;
    while (!probe_stop.load(std::memory_order_relaxed)) {
      try {
        if (!connected) {
          connect_retry(cluster, c, target, 10);
          connected = true;
        }
        const auto rr = c.read(kGid, pool[slot], /*min_index=*/0, 2000);
        if (rr.ok()) {
          probe_answered.fetch_add(1, std::memory_order_relaxed);
          if (rr.index < snapshot[slot]) {
            probe_stale.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } catch (const net::NetError&) {
        c.close();
        connected = false;
        target = (target == (write_node + 1) % kNodes)
                     ? (write_node + 2) % kNodes
                     : (write_node + 1) % kNodes;
      }
      slot = (slot + 1) % pool.size();
    }
  });

  bool post_crash_committed = false;
  std::uint64_t marker_index = 0;
  const auto failover_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (!post_crash_committed &&
         std::chrono::steady_clock::now() < failover_deadline) {
    const ProcessId nl = await_cluster_leader(cluster, 60);
    if (nl == kNoProcess) break;
    try {
      net::Client c;
      connect_retry(cluster, c, cluster.topo.node_of(nl), 10);
      const auto r = c.append_retry(kGid, /*client=*/4000, /*seq=*/1,
                                    /*command=*/65000, 15000);
      if (r.ok()) {
        post_crash_committed = true;
        marker_index = r.index;
      }
    } catch (const net::NetError&) {
    }
  }
  const double failover_ms = static_cast<double>(wall_ns() - crash_t0) / 1e6;
  verdict.expect(post_crash_committed,
                 "a surviving node must take over and commit");
  std::cout << "  failover -> first commit on a survivor: "
            << fmt_double(failover_ms, 1) << " ms (index " << marker_index
            << ")\n";
  json.set("failover_ms", failover_ms);

  // Read-your-writes across the failover: every survivor must serve the
  // marker at its acked position once fenced by min_index.
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    if (!cluster.alive(node)) continue;
    net::Client c;
    connect_retry(cluster, c, node, 30);
    bool served = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!served && std::chrono::steady_clock::now() < deadline) {
      try {
        const auto rr =
            c.read(kGid, 65000, /*min_index=*/marker_index + 1, 5000);
        if (rr.ok() && rr.index == marker_index + 1) served = true;
      } catch (const net::NetError&) {
        c.close();
        connect_retry(cluster, c, node, 10);
      }
    }
    verdict.expect(served, "survivor must serve the post-failover marker "
                           "at its acked position");
  }

  probe_stop.store(true, std::memory_order_relaxed);
  prober.join();
  std::cout << "  reads across the failover window: "
            << fmt_count(probe_answered.load()) << " answered, "
            << fmt_count(probe_stale.load()) << " stale\n";
  verdict.expect(probe_answered.load() > 0,
                 "survivors must answer reads across the failover window");
  verdict.expect(probe_stale.load() == 0,
                 "ZERO stale reads across failover: every answered index "
                 "must respect the pre-kill per-key maxima");
  json.set("post_kill_reads", probe_answered.load());
  json.set("stale_reads", probe_stale.load());

  // --- phase F: cross-check against the survivors' logs. -------------------
  // The storm's observed maxima and the survivors' actual logs must tell
  // one story: for every pool key, the highest index any reader ever saw
  // is exactly a position of that key in the converged log, never past
  // the end, never contradicting the survivors' agreement.
  {
    std::vector<net::Client::LogView> logs;
    for (std::uint32_t node = 0; node < kNodes; ++node) {
      if (!cluster.alive(node)) continue;
      net::Client c;
      connect_retry(cluster, c, node, 30);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(120);
      for (;;) {
        auto v = c.read_log_all(kGid);
        OMEGA_CHECK(v.status == net::Status::kOk, "read_log_all failed");
        if (v.entries.size() >= marker_index ||
            std::chrono::steady_clock::now() >= deadline) {
          logs.push_back(std::move(v));
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
    OMEGA_CHECK(logs.size() == 2, "two survivors expected");
    const std::size_t common =
        std::min(logs[0].entries.size(), logs[1].entries.size());
    bool agree = true;
    for (std::size_t i = 0; i < common; ++i) {
      agree = agree && logs[0].entries[i] == logs[1].entries[i];
    }
    verdict.expect(agree, "the survivors' logs must agree entry for entry");
    verdict.expect(common >= marker_index + 1,
                   "the shared log must cover the failover marker");
    std::unordered_map<std::uint64_t, std::uint64_t> final_pos;
    for (std::size_t i = 0; i < common; ++i) {
      final_pos[logs[0].entries[i]] = i + 1;  // wire index = position + 1
    }
    bool consistent = true;
    for (std::size_t slot = 0; slot < pool.size(); ++slot) {
      const auto it = final_pos.find(pool[slot]);
      consistent = consistent && it != final_pos.end() &&
                   snapshot[slot] <= it->second;
    }
    verdict.expect(consistent,
                   "every observed read index must be covered by the "
                   "survivors' converged log");
    json.set("survivor_log_len", static_cast<std::uint64_t>(common));
  }

  json.set_str("bench", "e17_reads");
  json.write(json_path);

  std::cout << '\n';
  return verdict.finish(
      "the lease + read-index path turns all three processes into read "
      "capacity: point reads are answered at memory speed on the IO "
      "thread, the B=64 write gate still holds, follower reads wait out "
      "their fence instead of answering stale, and SIGKILLing the leader "
      "never lets a stale read escape");
}
