// SmrService: the facade of src/smr. Manages live replicated-log groups on
// top of a MultiGroupLeaderService — each log rides one election group
// (same Ω instance, same AtomicMemory, same shard worker) registered with
// a GroupSpec that declares the log's registers and installs the LogGroup
// as the group's pump.
//
//   svc::MultiGroupLeaderService svc;
//   smr::SmrService smr(svc);
//   smr.add_log(42, {.n = 3, .capacity = 4096, .window = 32});
//   svc.start();
//   smr.append(42, client_id, seq, cmd, [](AppendOutcome oc, uint64_t i) {...});
//
// append() is asynchronous: the callback fires when the command commits
// (on the owning worker thread) or immediately for duplicates/rejections.
// Idempotency comes from the (client, seq) dedup key — see
// command_queue.h for the session contract. Leadership gating is the
// *caller's* policy: the service accepts commands whenever a slot might
// still place them (the net front-end rejects appends with kNotLeader
// while the group has no agreed leader, so clients redirect/back off, but
// a command accepted just before a crash simply commits under the next
// leader).
#pragma once

#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "smr/log_group.h"
#include "svc/multigroup_service.h"

namespace omega::smr {

/// Push seam for applied entries: one invocation per applied *batch* —
/// `values[i]` was applied at index `first_index + i` — on the owning
/// worker right after the batch's append completions. The net front-end
/// fans this out to COMMIT_WATCH subscribers (one post per loop per
/// batch, not per entry). `traces[i]` is the entry's v1.4 trace id (0 =
/// untraced), in lockstep with `values` — followers see the sealer's ids
/// because they ride the spill ring.
using CommitListener = std::function<void(
    svc::GroupId gid, std::uint64_t first_index,
    const std::vector<std::uint64_t>& values,
    const std::vector<std::uint64_t>& traces)>;

class SmrService {
 public:
  explicit SmrService(svc::MultiGroupLeaderService& svc);
  ~SmrService();

  SmrService(const SmrService&) = delete;
  SmrService& operator=(const SmrService&) = delete;

  // --- registration --------------------------------------------------------

  /// Creates the log group `gid` (and its election group in the underlying
  /// service — the id must be free there). Allowed before and while the
  /// service runs.
  void add_log(svc::GroupId gid, const SmrSpec& spec = {});

  /// Retires the log and its election group; everything still queued
  /// fails with kAborted. Returns false if the id is unknown.
  bool remove_log(svc::GroupId gid);

  bool has_log(svc::GroupId gid) const;
  std::size_t num_logs() const;

  // --- client API (any thread) ---------------------------------------------

  /// Submits a command (range [1, kLogNoOp)). `done` fires exactly once:
  /// synchronously for rejections and committed duplicates, on the owning
  /// worker thread when the command commits. Unknown gid → kAborted.
  /// `trace` is the append's v1.4 trace id (0 = untraced); it rides the
  /// command through the queue, spill ring, and commit fan-out.
  void append(svc::GroupId gid, std::uint64_t client, std::uint64_t seq,
              std::uint64_t command, AppendCompletion done,
              std::uint64_t trace = 0);

  /// Copies up to `max` applied entries starting at `from`; false if the
  /// gid is unknown.
  bool read_log(svc::GroupId gid, std::uint64_t from, std::uint32_t max,
                LogGroup::Snapshot& out) const;

  /// Point read (the v1.6 fast path): loads a FRESH leader view and the
  /// pool clock, then forwards to LogGroup::read_point. `view` carries
  /// the leader hint + fenced epoch for the response regardless of mode.
  /// False if the gid hosts no log (caller answers kUnknownGroup). Any
  /// thread — this is what the net IO threads call per READ frame.
  bool read_point(svc::GroupId gid, std::uint64_t key, std::uint64_t min_index,
                  svc::LeaderView& view, LogGroup::ReadAnswer& answer,
                  LogGroup::ReadMode& mode, LogGroup::ReadCompletion done);

  /// Applied-entry count (0 for unknown gids).
  std::uint64_t commit_index(svc::GroupId gid) const;

  /// Intake/session counters of the group's command queue (zeros for
  /// unknown gids) — surfaces the dedup-map bound and TTL evictions.
  CommandQueue::Stats queue_stats(svc::GroupId gid) const;

  /// SESSION_OPEN handshake: (re)creates `client`'s dedup session and
  /// reports the group's eviction TTL. False if the gid is unknown.
  bool open_session(svc::GroupId gid, std::uint64_t client,
                    std::int64_t& ttl_us);

  /// Whether replica `pid` of the log executes in this process (true for
  /// single-process groups and unknown gids) — the front-end's
  /// redirect-to-leader-node gate.
  bool hosts_replica(svc::GroupId gid, ProcessId pid) const;

  /// Quorum progress (a mirror ack watermark moved, the WAL fsynced):
  /// wakes the worker of every log that holds acknowledgements for
  /// quorum_ack. Any thread; cheap.
  void wake_held_acks() const;

  /// Installs (or clears) the commit push listener. Barrier semantics as
  /// with svc's epoch listener: on return, no in-flight invocation of the
  /// previous listener is still running.
  void set_commit_listener(CommitListener listener);

  // --- debug / test --------------------------------------------------------

  /// Replica `pid`'s decision board for `slot` (agreement checks).
  std::optional<std::uint64_t> decided_by(svc::GroupId gid, ProcessId pid,
                                          std::uint32_t slot) const;

  svc::MultiGroupLeaderService& service() noexcept { return svc_; }

 private:
  std::shared_ptr<LogGroup> find(svc::GroupId gid) const;
  void notify_commit(svc::GroupId gid, std::uint64_t first_index,
                     const std::vector<std::uint64_t>& values,
                     const std::vector<CommandQueue::CommitRecord>& recs) const;

  svc::MultiGroupLeaderService& svc_;

  mutable std::shared_mutex logs_mu_;
  std::unordered_map<svc::GroupId, std::shared_ptr<LogGroup>> logs_;

  /// Reader/writer split mirrors GroupRegistry's listener seam.
  mutable std::shared_mutex listener_mu_;
  CommitListener listener_;
};

}  // namespace omega::smr
