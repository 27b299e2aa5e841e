#include "cluster.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sched.h>
#include <sys/prctl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "wal/wal_io.h"

namespace perfbench {
namespace {

using namespace omega;

/// Binds every probe socket before releasing any, so the kernel cannot
/// hand one port out twice.
std::vector<std::uint16_t> pick_free_ports(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      throw std::runtime_error("cannot bind a loopback port");
    }
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

smr::SmrSpec node_spec() {
  smr::SmrSpec spec;
  spec.n = kNodes;
  spec.capacity = 65536;  // the log's hard length, in consensus slots
  spec.window = 4;
  spec.max_batch = 64;
  spec.max_pending = 8192;
  // Durable: an acknowledged append is fsynced into a quorum of WALs.
  spec.quorum_ack = true;
  // Leader leases (lease reads) and follower read-index reads.
  spec.lease_ttl_us = 400000;
  spec.lease_skew_us = 20000;
  return spec;
}

/// WAL storage with the semantics of tmpfs: every write(2) reaches the
/// file (and the page cache, which a SIGKILL keeps), the fdatasync
/// barrier returns at once.
class NoSyncWalIo final : public wal::WalIo {
 public:
  bool mkdirs(const std::string& dir) override { return io_.mkdirs(dir); }
  std::vector<std::string> list(const std::string& dir) override {
    return io_.list(dir);
  }
  bool read_file(const std::string& path,
                 std::vector<std::uint8_t>& out) override {
    return io_.read_file(path, out);
  }
  int open_append(const std::string& path) override {
    return io_.open_append(path);
  }
  std::int64_t write(int handle, const void* data, std::size_t n) override {
    return io_.write(handle, data, n);
  }
  int sync(int) override { return 0; }
  void close(int handle) override { io_.close(handle); }
  bool truncate(const std::string& path, std::uint64_t size) override {
    return io_.truncate(path, size);
  }

 private:
  wal::PosixWalIo io_;
};

[[noreturn]] void run_node(const smr::NodeTopology& base, std::uint32_t self,
                           const std::string& wal_dir,
                           const std::string& log_path) {
  // Inherited client sockets of the generator would keep its connections
  // half-alive; the node needs none of them.
  const int log_fd = ::open(log_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd >= 0) {
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
  }
  ::close_range(3, ~0U, 0);
  // Die with the generator, however it ends.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  pin_to_cores(/*generator=*/false);
  try {
    smr::NodeTopology topo = base;
    topo.self = self;
    svc::SvcConfig scfg;
    scfg.workers = 1;
    scfg.tick_us = 50000;
    scfg.wheel_slot_us = 4096;
    scfg.ops_per_sweep = 64;
    scfg.pace_us = 50;
    scfg.max_pace_us = 2000;
    scfg.worker_nice = 10;
    net::NetConfig ncfg;
    ncfg.node_id = self;
    NoSyncWalIo no_sync;
    wal::WalOptions wopts;
    wopts.dir = wal_dir;
    wopts.io = &no_sync;
    smr::SmrNode node(topo, scfg, ncfg, wopts);
    node.add_log(kGid, node_spec());
    node.start();
    for (;;) ::pause();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "node %u failed: %s\n", self, e.what());
  } catch (...) {
  }
  _exit(1);
}

double read_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

}  // namespace

void pin_to_cores(bool generator) {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (n < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (generator) {
    CPU_SET(0, &set);
  } else {
    for (long c = 1; c < n; ++c) CPU_SET(static_cast<int>(c), &set);
  }
  ::sched_setaffinity(0, sizeof set, &set);
}

KeepAwake::KeepAwake() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  for (long c = 0; c < n; ++c) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid > 0) {
      pids_.push_back(pid);
      continue;
    }
    ::close_range(0, ~0U, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(c), &set);
    ::sched_setaffinity(0, sizeof set, &set);
    const sched_param idle{};
    ::sched_setscheduler(0, SCHED_IDLE, &idle);
    static volatile bool spin = true;
    while (spin) {
    }
  }
}

KeepAwake::~KeepAwake() {
  for (const pid_t pid : pids_) ::kill(pid, SIGKILL);
  for (const pid_t pid : pids_) ::waitpid(pid, nullptr, 0);
}

ProcUsage proc_usage(pid_t pid) {
  ProcUsage u;
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 overall, i.e. the 12th and 13th after ')'.
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return u;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  u.cpu_s = ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  u.hwm_mb = read_hwm_mb(pid);
  return u;
}

int self_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

Cluster::Cluster(const std::string& dir)
    : pids_(kNodes, -1), reaped_(kNodes) {
  const std::vector<std::uint16_t> ports = pick_free_ports(2 * kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    topo_.nodes.push_back(
        smr::NodeEndpoint{i, "127.0.0.1", ports[2 * i], ports[2 * i + 1]});
    const std::string wal = dir + "/wal" + std::to_string(i);
    std::filesystem::remove_all(wal);
    std::filesystem::create_directories(wal);
    wal_dirs_.push_back(wal);
    logs_.push_back(dir + "/node" + std::to_string(i) + ".log");
  }
}

Cluster::~Cluster() {
  for (const pid_t pid : pids_) {
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  for (const pid_t pid : pids_) {
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
}

pid_t Cluster::spawn(std::uint32_t node) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) run_node(topo_, node, wal_dirs_[node], logs_[node]);
  return pid;
}

void Cluster::start() {
  for (std::uint32_t i = 0; i < kNodes; ++i) pids_[i] = spawn(i);
}

void Cluster::kill(std::uint32_t node) {
  if (pids_[node] <= 0) return;
  ::kill(pids_[node], SIGKILL);
  int status = 0;
  rusage ru{};
  ::wait4(pids_[node], &status, 0, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  reaped_[node].cpu_s += secs(ru.ru_utime) + secs(ru.ru_stime);
  reaped_[node].hwm_mb = std::max(reaped_[node].hwm_mb,
                                  static_cast<double>(ru.ru_maxrss) / 1024.0);
  pids_[node] = -1;
}

void Cluster::restart(std::uint32_t node) {
  if (pids_[node] <= 0) pids_[node] = spawn(node);
}

ProcUsage Cluster::usage(std::uint32_t node) const {
  ProcUsage u = reaped_[node];
  if (pids_[node] > 0) {
    const ProcUsage live = proc_usage(pids_[node]);
    u.cpu_s += live.cpu_s;
    u.hwm_mb = std::max(u.hwm_mb, live.hwm_mb);
  }
  return u;
}

}  // namespace perfbench
