// LogGroup: one live replicated-log group — a ReplicatedLog bound to the
// real register backend of an svc election group, pumped incrementally on
// the group's owning shard worker.
//
// This is the paper's headline application running on the live runtime:
// the Ω instance the group already runs for leader election *is* the
// oracle the log's proposers consult (LeaderQueryOp answers come from the
// co-located election), so the elected leader drives consensus slots to
// decision while followers forward — exactly the SimDriver construction of
// consensus/replicated_log.h, now serving real clients.
//
// Batching (SmrSpec::max_batch > 1): each consensus slot decides a batch
// descriptor instead of a single command — the sweep drains up to
// max_batch queued commands into the group's shared BatchBuffer ring (a
// spill region declared next to the log's slot registers), seals the
// batch, and the slot's proposers agree on (count, sealer). Commits
// apply and acknowledge the whole batch in FIFO order with one queue lock
// and one commit-hook invocation. max_batch == 1 (the default) keeps the
// unbatched pump byte-for-byte, including the layout.
//
// Multi-node deployment (SmrSpec::local_mask): replicas of the group are
// split across OS processes over pushed register mirrors
// (registers/mirror.h + net/register_peer.h). Each process's LogGroup
// pumps only its local replicas:
//   * the node hosting the elected leader *seals* — it drains its own
//     CommandQueue into spill rows (ticketed owned batches, so
//     acknowledgements survive failover re-proposals) and proposes;
//   * follower nodes pump in observer mode — they harvest slots decided
//     elsewhere (values arrive through the mirror) and apply them to
//     their own copy of the state machine, so READ_LOG and COMMIT_WATCH
//     are served identically on every node; their intake stays gated
//     (the net front-end answers kNotLeader with the leader hint);
//   * across a failover, batches the dead leader sealed are adopted and
//     re-pushed by the new leader, and batches the new leader sealed
//     that lost their slot are re-proposed exactly once (see
//     consensus/log_pump.h for the ledger mechanics);
//   * a node that stops leading answers what it accepted but never
//     sealed — queued appends and batches displaced from their slots —
//     with kNotLeader, so clients retry at the node that leads now; the
//     batches it sealed that are still in flight are adopted by the new
//     leader once it idles (LogPump's adoption) and acknowledged here;
//   * sealing is bounded by the followers' apply reach: every node
//     publishes its pump's committed slot in its APPLIED cell, and the
//     leader starts a slot only while every live follower's published
//     cursor is within ring_slack slots of it, so no follower that keeps
//     streaming can lag past the spill ring (a follower whose stream is
//     down, whose acks stall, or that is already past the ring is not
//     waited for).
// Dedup sessions remain node-local: a client whose command committed
// under a leader that then died can observe a duplicate if it retries
// against the new leader (the classic async-replication window; closing
// it means writing session state through the log itself — future work).
//
// Wakeups (svc::Waker): the pump wakes its worker itself when a sweep
// sealed a slot (the proposers run in the very next sweep), the service
// wakes it on every accepted append, and quorum progress (mirror acks,
// WAL durability) wakes it while acknowledgements are held — the append
// path never waits out the worker's idle pace.
//
// Wiring (done by SmrService): the LogGroup is handed to the svc registry
// as GroupSpec{extra_registers = declare(), pump = this}; the Group
// constructor calls attach() to bind the log against the built layout, and
// every worker sweep calls on_sweep() to run one LogPump tick — harvest
// decided slots, apply them to the in-memory state machine, fire client
// completions and the commit hook, refill the proposer window from the
// CommandQueue, reap finished proposer frames, and expire idle dedup
// sessions.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "consensus/log_pump.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "smr/command_queue.h"
#include "smr/lease.h"
#include "svc/group_registry.h"
#include "wal/wal.h"

namespace omega::smr {

/// Registers the replication layer's health rules against the black-box
/// time series: commit-progress stall (queued work with a flat commit
/// counter), mirror push-lag p99, session-eviction spikes, the
/// mirror-stall watchdog, and the WAL stall/IO-error rule. All rules read
/// metrics this layer only emits once a log group (or WAL) exists, so
/// they stay kOk on election-only nodes.
void register_health_rules(obs::HealthMonitor& hm);

/// Per-log instantiation parameters.
struct SmrSpec {
  AlgoKind algo = AlgoKind::kWriteEfficient;
  std::uint32_t n = 3;          ///< replicas
  std::uint32_t capacity = 1024;  ///< consensus slots (hard log length)
  std::uint32_t window = 16;      ///< pipelined in-flight slots
  std::size_t max_pending = 4096; ///< CommandQueue intake bound
  /// Commands decided per consensus slot (1..kMaxBatchCommands). 1 keeps
  /// the classic one-command-per-slot pump (and its exact layout); larger
  /// values group-commit: same slot rate, max_batch× the append rate.
  std::uint32_t max_batch = 1;
  /// Dedup-session expiry for idle clients (0 = keep forever). See
  /// command_queue.h for the retry-window tradeoff.
  std::int64_t session_ttl_us = 0;
  /// Replicas hosted by THIS process (bit p). 0 = all local (the
  /// single-process deployment). Must agree with the svc GroupSpec the
  /// log is registered under (SmrService forwards it).
  std::uint64_t local_mask = 0;
  /// Storage override forwarded to the svc group (the multi-node runtime
  /// installs a MirroredMemory factory wired to the push transport).
  MemoryFactory memory_factory{};
  /// Liveness probe for the sealing bound: whether the node hosting
  /// remote replica `p` still streams (net::MirrorTransport::peer_live —
  /// connected, acks not stalled). The leader waits for the APPLIED
  /// cursor of live replicas only. Empty = every remote replica is live.
  std::function<bool(ProcessId)> mirror_live{};
  /// Self-healing hook: invoked when a decided slot's payload has not
  /// become readable for mirror_stall_resync_us (a wedged stream), to
  /// make the transport rebuild its streams with fresh snapshots —
  /// net::MirrorTransport::force_resync. Empty = wait indefinitely.
  std::function<void()> mirror_resync{};
  std::int64_t mirror_stall_resync_us = 2000000;
  /// Extra spill-ring rows beyond the window in multi-node mode, and the
  /// sealing bound: the leader starts slot s only while every live
  /// follower's published APPLIED cursor is above s - ring_slack.
  std::uint32_t ring_slack = 64;

  // --- durability (PR 9) ---------------------------------------------------

  /// Per-node write-ahead log. When set, every durable-floor register
  /// write of this group (slot ballots, decision boards, spill rows,
  /// seals) and every applied batch is journaled; must be started by the
  /// owner (SmrNode) and outlive the group.
  wal::Wal* wal = nullptr;
  /// Crash-restart image replayed from the WAL: preseeds the applied log
  /// and fast-forwards the pump past the recovered prefix at attach().
  std::shared_ptr<const wal::GroupImage> recovery{};
  /// Majority-acked commits: hold each append's acknowledgement until
  /// (a) the local WAL has fsynced the batch's records and (b) a quorum
  /// of replicas — local ones plus remote ones whose node's cumulative
  /// mirror ack covers the sealed batch — has it. Requires `wal`.
  /// Single-process (all replicas local) this degenerates to
  /// fsync-gated acknowledgements.
  bool quorum_ack = false;
  /// Mirror write watermark at "now" (net::MirrorTransport::write_seq);
  /// read after a batch is applied, it names a point covering all of the
  /// batch's register writes. Empty in single-process deployments.
  std::function<std::uint64_t()> mirror_write_seq{};
  /// Replica votes of REMOTE nodes whose cumulative ack watermark covers
  /// `mark` (each vote = one replica hosted by an acked node; the
  /// SmrNode wiring weighs nodes by their replica count). Empty = no
  /// remote votes ever.
  std::function<std::uint32_t(std::uint64_t)> mirror_acked_votes{};

  // --- linearizable reads (PR 10) ------------------------------------------

  /// Leader-lease TTL: while the node hosting the agreed leader has a
  /// quorum-confirmed heartbeat younger than this (and the svc epoch is
  /// unchanged), point reads are answered on the IO thread from the
  /// applied-key index — no consensus, no owner-thread hop. 0 disables
  /// the lease (reads fall back to the leader slow path / follower
  /// read-index). See README "Linearizable reads" for the safety rule.
  std::int64_t lease_ttl_us = 0;
  /// Clock-skew bound paid on every lease extension: a heartbeat sent at
  /// t extends validity to t + lease_ttl_us - lease_skew_us. A bound >=
  /// the TTL refuses lease reads entirely (the safe configuration for
  /// unsynchronized clocks).
  std::int64_t lease_skew_us = 0;

  bool is_local(ProcessId p) const noexcept {
    return local_mask_covers(local_mask, p);
  }
};

/// Invoked on the owning worker once per applied batch, right after the
/// batch's own append completions fired: entries `values[i]` / `recs[i]`
/// were applied at index `first_index + i`. Same contract as
/// svc::EpochListener: cheap, non-blocking, hand anything heavier to
/// another thread. For entries committed by a remote node's pump, `recs`
/// carries {0, 0, command, trace} — the (client, seq) bookkeeping lives
/// with the sealer, but the trace id travels through the spill ring so
/// follower-side commit events still name the originating append.
using CommitHook = std::function<void(
    std::uint64_t first_index, const std::vector<std::uint64_t>& values,
    const std::vector<CommandQueue::CommitRecord>& recs)>;

class LogGroup final : public svc::GroupPump {
 public:
  LogGroup(svc::GroupId gid, const SmrSpec& spec, CommitHook hook);
  ~LogGroup();

  svc::GroupId gid() const noexcept { return gid_; }
  const SmrSpec& spec() const noexcept { return spec_; }
  CommandQueue& queue() noexcept { return queue_; }

  /// True iff replica `pid` executes in this process.
  bool hosts(ProcessId pid) const noexcept { return spec_.is_local(pid); }
  bool multi_node() const noexcept { return multi_node_; }

  /// LayoutExtension body for GroupSpec::extra_registers. The LEASE and
  /// APPLIED cells are declared BEFORE the log's slot registers so they
  /// sit below the WAL's durable floor (the first "L0REG" cell): they
  /// ride the mirror push stream like any register but are never
  /// journaled — lease state must die with the process, and a restarted
  /// node republishes its applied cursor from its own replay.
  void declare(LayoutBuilder& b) {
    b.add_array("LEASE", kLeaseCells, OwnerRule::kAny, /*critical=*/false);
    b.add_array("APPLIED", spec_.n, OwnerRule::kRowOwner,
                /*critical=*/false);
    log_.declare(b);
    if (batch_.has_value()) batch_->declare(b);
  }

  // --- svc::GroupPump ------------------------------------------------------

  void attach(svc::Group& g) override;
  bool on_sweep(svc::Group& g, std::int64_t now_us) override;

  // --- read side (any thread) ----------------------------------------------

  /// Number of applied entries (the log index space is [0, commit_index)).
  std::uint64_t commit_index() const noexcept {
    return commit_index_.load(std::memory_order_acquire);
  }

  /// True once every slot has been assigned commands; new submissions are
  /// rejected with kLogFull upstream.
  bool log_full() const noexcept {
    return log_full_.load(std::memory_order_acquire);
  }

  struct Snapshot {
    std::uint64_t commit_index = 0;
    std::vector<std::uint64_t> entries;  ///< [from, from + entries.size())
  };

  /// Copies up to `max` applied entries starting at `from`.
  void read(std::uint64_t from, std::uint32_t max, Snapshot& out) const;

  // --- point reads (IO thread — the v1.6 fast path) ------------------------

  /// How a point read was (or will be) answered.
  enum class ReadMode : std::uint8_t {
    kLease,       ///< leader, epoch-fenced lease valid — linearizable
    kFallback,    ///< leader with leases DISABLED: plain committed read
    kRefused,     ///< leader with leases enabled but invalid right now —
                  ///< refuse with a NotLeader hint (a deposed leader's
                  ///< cached self-view must never answer with authority)
    kIndex,       ///< follower, local apply already past the fence
    kDefer,       ///< follower, parked until apply passes the fence
    kOverloaded,  ///< waiter budget exhausted; caller answers kOverloaded
  };

  struct ReadAnswer {
    std::uint64_t index = 0;         ///< applied position + 1; 0 = absent
    std::uint64_t commit_index = 0;  ///< local applied length
  };

  /// Deferred-read completion (kDefer): fired on the owning worker once
  /// the fence passes (`passed` = true) or the deadline expires (false),
  /// with the key's lookup at fire time.
  using ReadCompletion =
      std::function<void(bool passed, const ReadAnswer& answer)>;

  /// Point read of `key`'s latest applied position, decided against the
  /// caller's FRESH LeaderView (the IO thread loads it from the
  /// LeaderCache, so an epoch bump is visible here before the owner
  /// thread's next sweep). Fills `out` for every mode except kDefer /
  /// kOverloaded; kDefer parks `done`. Any thread.
  ReadMode read_point(std::uint64_t key, std::uint64_t min_index,
                      const svc::LeaderView& view, std::int64_t now_us,
                      ReadAnswer& out, ReadCompletion done);

  /// Whether the epoch-fenced lease is valid right now for `epoch` (the
  /// IO-thread check; also the dashboard/test probe).
  bool lease_valid(std::uint64_t epoch, std::int64_t now_us) const {
    return now_us < lease_until_pub_.load(std::memory_order_acquire) &&
           epoch == lease_epoch_pub_.load(std::memory_order_acquire);
  }

  /// Latest applied position of `key` plus one (0 = never applied), from
  /// the one-writer/many-reader applied-key index. Any thread.
  std::uint64_t lookup_key(std::uint64_t key) const {
    if (key >= kKeySpace) return 0;
    return applied_key_[key].load(std::memory_order_acquire);
  }

  /// Replica `pid`'s own decision-board entry for `slot` (agreement
  /// checking in tests; uninstrumented peeks). With batching the decided
  /// value is the batch descriptor, not a command.
  std::optional<std::uint64_t> decided_by(ProcessId pid,
                                          std::uint32_t slot) const;

  /// Tears the queue down (fires `outcome` for everything still waiting).
  /// Deferred quorum_ack completions fire kCommitted regardless: their
  /// entries ARE applied — reporting kAborted would provoke a retry of a
  /// committed command.
  void abort(AppendOutcome outcome = AppendOutcome::kAborted);

  /// Cuts the owning worker's wait short (svc::Group::wake). Any thread;
  /// a no-op before attach().
  void wake() const {
    if (svc::Waker* w = waker_.load(std::memory_order_acquire)) w->wake();
  }

  /// wake() iff acknowledgements are held for quorum_ack — the quorum
  /// progress events (mirror acks, WAL durability) call this, so a leader
  /// does not re-sweep on the acks of its own heartbeats. Any thread.
  void wake_if_acks_held() const {
    if (acks_held_.load(std::memory_order_acquire)) wake();
  }

  /// Detaches the commit hook — a barrier: on return, no in-flight
  /// invocation is still running. The owning SmrService calls this before
  /// it dies, because the svc Group (which outlives it via
  /// GroupSpec::pump) would otherwise keep firing the hook into a freed
  /// service on later sweeps.
  void clear_hook();

 private:
  /// PumpHost over the group's executors (owner-thread calls only).
  /// live() is false for replicas hosted on other nodes, so proposers
  /// only spawn on local execution streams.
  class ExecHost final : public PumpHost {
   public:
    std::uint32_t n() const override { return g_->spec.n; }
    bool live(ProcessId i) const override {
      return g_->execs[i] != nullptr && !g_->execs[i]->crashed();
    }
    void spawn(ProcessId i, ProcTask task) override {
      g_->execs[i]->add_app_task(std::move(task));
    }
    MemoryBackend& memory() override { return *g_->inst.memory; }

    svc::Group* g_ = nullptr;
  };

  /// BatchSource over the command queue. Single-process: plain FIFO
  /// pull (ticket 0, commits pop in order). Multi-node: ticketed owned
  /// batches (the pump's seal limit gates leadership and apply reach).
  class QueueSource final : public BatchSource {
   public:
    explicit QueueSource(LogGroup& lg) : lg_(lg) {}
    std::uint32_t pull(std::uint32_t max, std::vector<std::uint64_t>& out,
                       std::uint64_t& ticket,
                       std::vector<std::uint64_t>& traces) override {
      if (!lg_.multi_node_) {
        ticket = 0;
        return lg_.queue_.pull_batch(max, out, &traces);
      }
      return lg_.queue_.pull_batch_owned(max, out, ticket, &traces);
    }

   private:
    LogGroup& lg_;
  };

  /// Applies a sweep's harvest in multi-node mode: local (ticketed) runs
  /// acknowledge their owned batches, remote runs apply silently. With
  /// `defer` non-null, local completions are collected there instead of
  /// fired (quorum_ack).
  void apply_commits_multi(std::uint64_t first,
                           CommandQueue::DeferredFire* defer);

  /// Fires every deferred batch whose WAL records are durable and whose
  /// write mark a quorum covers (owner thread; FIFO, so acks stay in
  /// commit order).
  void release_deferred();

  /// Multi-node sealing bound for this sweep: the first slot some live
  /// follower could not read back from the spill ring once sealed — its
  /// published APPLIED cursor plus ring_slack, minimum over live remote
  /// replicas (LogPump::kNoSealLimit when none bounds it). Owner thread.
  std::uint32_t reach_limit(svc::Group& g) const;

  /// Publishes the pump's committed slot in this node's APPLIED cells
  /// (every ring_slack / 8 slots, and once at the first sweep). Owner
  /// thread.
  void publish_applied(svc::Group& g);

  /// Another node leads: answers every queued append and every displaced
  /// batch with kNotLeader — none of them can reach the log from here.
  void answer_not_leader();

  const svc::GroupId gid_;
  const SmrSpec spec_;
  const bool multi_node_;
  const ProcessId sealer_;  ///< lowest local replica: this node's bank
  ReplicatedLog log_;
  std::optional<BatchBuffer> batch_;  ///< engaged iff max_batch > 1
  CommandQueue queue_;
  QueueSource source_;
  bool leader_local_ = true;  ///< per-sweep: elected leader lives here
  /// Woken by wake(): the owning shard's waker, set at attach().
  std::atomic<svc::Waker*> waker_{nullptr};
  /// APPLIED register group (resolved at attach) and the last cursor
  /// this node published there.
  GroupId applied_grp_ = 0;
  bool applied_cells_ok_ = false;
  bool applied_published_ = false;
  std::uint32_t applied_pub_ = 0;
  std::vector<std::uint64_t> ticket_scratch_;  ///< answer_not_leader
  /// Payload-stall watchdog (multi-node): when the pump reports stalls
  /// without commit progress for too long, fire the resync hook.
  std::uint64_t stall_marker_ = 0;   ///< payload_stalls at last progress
  std::int64_t stall_since_us_ = 0;  ///< 0 = not currently stalled
  /// Reader/writer split as in GroupRegistry's listener seam: on_sweep
  /// holds the shared side across the call, clear_hook's unique lock
  /// doubles as a completion barrier.
  mutable std::shared_mutex hook_mu_;
  CommitHook hook_;

  ExecHost host_;
  std::unique_ptr<LogPump> pump_;  ///< created at attach()
  std::vector<LogPump::Commit> scratch_;  ///< per-sweep commit buffer
  std::vector<std::uint64_t> values_;     ///< per-sweep applied values
  std::vector<CommandQueue::CommitRecord> recs_;  ///< per-sweep records

  mutable std::mutex applied_mu_;
  std::vector<std::uint64_t> applied_;
  std::atomic<std::uint64_t> commit_index_{0};
  std::atomic<bool> log_full_{false};

  // --- linearizable reads (PR 10) ------------------------------------------

  /// LEASE register-group shape: [0] heartbeat ((holder+1) << 48 | seq),
  /// [1] the leader's published commit index (the follower read fence).
  static constexpr std::uint32_t kLeaseCells = 2;
  static constexpr std::uint32_t kLeaseCellHb = 0;
  static constexpr std::uint32_t kLeaseCellFence = 1;
  /// The fence cell holds (leader + 1) << 48 | applied length.
  static constexpr std::uint64_t kFenceIndexMask = (1ull << 48) - 1;
  /// Applied-key index width: one slot per possible command value
  /// (commands live in [1, kLogNoOp)).
  static constexpr std::uint64_t kKeySpace = 65536;
  /// Parked follower reads beyond this answer kOverloaded.
  static constexpr std::size_t kMaxReadWaiters = 4096;

  /// Owner-thread lease bookkeeping (heartbeat cadence, confirm queue).
  void lease_tick(svc::Group& g, const svc::LeaderView& view,
                  std::int64_t now_us);
  /// Wakes fence waiters covered by the current applied index, expires
  /// the rest past their deadline. Owner thread.
  void drain_read_waiters(std::int64_t now_us);

  /// One-writer (owner thread) / many-reader (IO threads) index:
  /// applied_key_[k] = latest applied position of command k, plus one.
  std::unique_ptr<std::atomic<std::uint64_t>[]> applied_key_;

  LeaseState lease_;               ///< owner-thread state machine
  Cell lease_hb_cell_{};           ///< resolved at attach()
  Cell lease_fence_cell_{};
  bool lease_cells_ok_ = false;    ///< LEASE group resolved in the layout
  std::uint64_t lease_hb_seq_ = 0;       ///< this node's heartbeat counter
  std::int64_t lease_hb_sent_us_ = 0;    ///< last heartbeat poke
  std::uint64_t lease_foreign_hb_ = 0;   ///< last observed foreign HB value
  /// Outstanding heartbeats awaiting quorum acks: (mirror write mark at
  /// send, send time). FIFO; confirmed or pruned by lease_tick.
  std::deque<std::pair<std::uint64_t, std::int64_t>> lease_outstanding_;
  /// IO-thread-visible lease validity: the owner thread republishes both
  /// every sweep; readers pair them with a FRESH cache epoch.
  std::atomic<std::int64_t> lease_until_pub_{0};
  std::atomic<std::uint64_t> lease_epoch_pub_{0};
  /// Sampler-thread gauge snapshots (the sampler may not read the plain
  /// owner-thread state): "this node hosts the agreed leader of a
  /// lease-enabled group" / "that lease is currently valid".
  std::atomic<std::uint32_t> lease_expected_pub_{0};
  std::atomic<std::uint32_t> lease_valid_snap_{0};

  /// Parked follower reads (IO threads park, owner thread drains).
  std::mutex waiters_mu_;
  ReadWaiters waiters_;
  std::atomic<std::uint64_t> waiters_size_{0};  ///< gauge snapshot
  std::vector<ReadWaiters::Fire> waiter_scratch_;  ///< owner-thread-only

  /// quorum_ack deferral: one entry per applied batch whose client
  /// completions are held back. Owner thread pushes/releases; abort()
  /// (any thread) drains — hence the mutex.
  struct DeferredBatch {
    std::uint64_t wal_seq = 0;     ///< local durability gate
    std::uint64_t write_mark = 0;  ///< mirror coverage gate
    CommandQueue::DeferredFire fire;
  };
  std::mutex deferred_mu_;
  std::deque<DeferredBatch> deferred_;
  std::atomic<bool> acks_held_{false};  ///< !deferred_.empty()
  const std::uint32_t local_votes_;   ///< replicas hosted by this process
  std::uint32_t durable_floor_ = wal::kNoDurableFloor;
  CommandQueue::DeferredFire fire_scratch_;  ///< per-sweep deferred fires

  /// obs wiring: decide -> apply latency (resolved once), queue-depth
  /// gauges (registered per group, summed by name at scrape), and the
  /// failover/eviction trace state.
  obs::Histogram* apply_hist_ = nullptr;  ///< smr.decide_to_apply_ns
  obs::Counter* commits_ctr_ = nullptr;   ///< smr.commits
  obs::Counter* watchdog_ctr_ = nullptr;  ///< smr.watchdog_fires
  obs::Histogram* fence_wait_hist_ = nullptr;  ///< smr.fence_wait_ns
  obs::Counter* lease_acq_ctr_ = nullptr;      ///< smr.lease.acquired
  obs::Counter* lease_drop_ctr_ = nullptr;     ///< smr.lease.dropped
  obs::Counter* reads_lease_ctr_ = nullptr;    ///< smr.reads.lease
  obs::Counter* reads_index_ctr_ = nullptr;    ///< smr.reads.index
  obs::Counter* reads_fallback_ctr_ = nullptr; ///< smr.reads.fallback
  obs::Counter* reads_refused_ctr_ = nullptr;  ///< smr.reads.refused
  bool lease_was_valid_ = false;  ///< owner-thread acquired-edge tracker
  std::vector<std::uint64_t> gauge_ids_;
  std::uint64_t last_evicted_ = 0;  ///< sessions_evicted at last sweep
  /// Last agreed leader that was NOT local (kNoProcess until one is
  /// seen): a false -> true leader_local_ edge after one existed is a
  /// failover onto this node, worth a flight-recorder dump.
  ProcessId last_remote_leader_ = kNoProcess;
  bool was_leader_local_ = false;
};

}  // namespace omega::smr
