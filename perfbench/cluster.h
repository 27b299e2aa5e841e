// A 3-node smr::SmrNode cluster of forked OS processes on loopback, run
// durable (per-node WAL, quorum-acknowledged appends) with leader leases
// on. The load generator forks the nodes before it starts any thread;
// a killed node restarts in place over its own WAL directory.
//
// The WAL writes real files, but its fdatasync barrier is a no-op, as on
// tmpfs: a virtual disk's fsync latency follows its own recent write
// history (0.3 ms to 12 ms at p99 on the reference box) and would set
// every append timing.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "smr/node.h"

namespace perfbench {

inline constexpr omega::svc::GroupId kGid = 7;
inline constexpr std::uint32_t kNodes = 3;

/// CPU seconds and peak resident memory of one node slot, summed over
/// every life the slot had (killed lives are reaped with wait4).
struct ProcUsage {
  double cpu_s = 0;   ///< utime + stime
  double hwm_mb = 0;  ///< VmHWM, the largest of any life
};

class Cluster {
 public:
  /// Picks fresh loopback ports and empties the WAL directories under
  /// `dir` (one per node).
  explicit Cluster(const std::string& dir);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Forks every node.
  void start();
  /// SIGKILLs `node` and reaps it, folding its final usage in.
  void kill(std::uint32_t node);
  /// Restarts a killed node: same identity, ports and WAL directory.
  void restart(std::uint32_t node);

  bool alive(std::uint32_t node) const { return pids_[node] > 0; }
  pid_t pid(std::uint32_t node) const { return pids_[node]; }
  std::uint16_t port(std::uint32_t node) const {
    return topo_.nodes[node].serve_port;
  }
  std::uint32_t node_of(omega::ProcessId pid) const {
    return topo_.node_of(pid);
  }
  /// Usage of the slot so far: reaped lives plus the live process.
  ProcUsage usage(std::uint32_t node) const;

 private:
  pid_t spawn(std::uint32_t node);

  omega::smr::NodeTopology topo_;
  std::vector<std::string> wal_dirs_;
  std::vector<std::string> logs_;
  std::vector<pid_t> pids_;
  std::vector<ProcUsage> reaped_;
};

/// CPU seconds (utime + stime) and VmHWM of a live process; zeros when
/// it cannot be read.
ProcUsage proc_usage(pid_t pid);

/// Pins the calling process (and the threads it starts later): the load
/// generator to core 0, a node to the other cores, so the generator's
/// scheduling delays do not land on the cluster and the reverse. No-op on
/// a single core.
void pin_to_cores(bool generator);

/// Threads of the calling process (from /proc/self/status).
int self_threads();

/// While it lives, every core runs a spinner process of scheduling class
/// SCHED_IDLE, so no core ever halts for want of work; any other thread
/// that becomes runnable preempts the spinner at once. In a virtual
/// machine a halted core wakes only through the hypervisor, whose wake-up
/// latency follows its own adaptive polling and the host's load: without
/// the spinners append_lowload read 2.5 times faster right after a build
/// than a few minutes later, and drifted by 10% between runs. The
/// spinners are not the generator's: its thread and CPU checks count the
/// generator process only. Construct before any thread starts.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::vector<pid_t> pids_;
};

}  // namespace perfbench
