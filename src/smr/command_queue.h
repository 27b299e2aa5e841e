// CommandQueue: the client-facing intake of one replicated-log group.
//
// Clients submit commands tagged with a (client, seq) dedup key; the pump
// (owner worker) pulls them in FIFO order — one at a time (pull) or up to
// a batch at once (pull_batch) — and assigns them to consensus slots.
// Because every replica proposes the same value for a slot and slots are
// harvested in order, commits pop pulled entries strictly FIFO —
// commit_front()/commit_batch() consume the oldest in-flight entries and
// fire their completions.
//
// Dedup contract (the classic SMR client-session rule): per client, `seq`
// is monotonically increasing, and the retry window is the *latest* seq —
// a client that did not see an append's answer (timeout, reconnect after a
// leader restart) resubmits the same (client, seq, command) and gets the
// original outcome: the already-committed index if the first copy made it,
// or a completion attached to the still-pending copy. Submitting seq ≤ an
// older seq than the latest is rejected as stale. Multiple *distinct*
// outstanding seqs per client are accepted (pipelining), but only the
// newest is retry-safe.
//
// Session bound: the dedup map grows one Session per client ever seen, so
// a long-lived group serving churning clients needs eviction. With a
// non-zero `session_ttl_us`, the pump sweep calls evict_idle_sessions();
// sessions idle past the TTL whose client has nothing pending or in
// flight are dropped (and counted in stats().evicted). An evicted
// client's late retry is indistinguishable from a fresh submission — the
// standard at-most-once-window tradeoff of bounded session tables — so
// pick a TTL comfortably above the client retry horizon.
//
// Threading: submit() may be called from any thread (the server's IO
// threads); pull*/commit_*/abort_*/evict_idle_sessions belong to the pump
// owner. One mutex guards everything — the queue is not the hot path (the
// consensus rounds are).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/ids.h"

namespace omega::smr {

/// Client-visible outcome of an append.
enum class AppendOutcome : std::uint8_t {
  kCommitted,  ///< committed; `index` is the log position
  kAccepted,   ///< queued; the completion fires when it commits
  kStaleSeq,   ///< seq older than the client's latest (outside dedup window)
  kQueueFull,  ///< intake bounded; retry later
  kLogFull,    ///< the group's slot capacity is exhausted
  kAborted,    ///< group torn down before the command committed
  kBadCommand, ///< command out of range, or a retry that changed it
  kSessionEvicted,  ///< dedup session TTL-expired; open_session to resume
  kNotLeader,  ///< another node leads now; this node will never seal it
};

/// Fired exactly once per accepted submission, either synchronously from
/// submit() (duplicate of a committed entry) or later on the pump owner's
/// thread. `index` is meaningful for kCommitted only.
using AppendCompletion =
    std::function<void(AppendOutcome outcome, std::uint64_t index)>;

class CommandQueue {
 public:
  /// `session_ttl_us` == 0 disables eviction (sessions live forever).
  explicit CommandQueue(std::size_t max_pending,
                        std::int64_t session_ttl_us = 0);

  struct SubmitResult {
    AppendOutcome outcome = AppendOutcome::kAccepted;
    std::uint64_t index = 0;  ///< valid when outcome == kCommitted
  };

  /// Any thread. When the result is kAccepted the completion is retained
  /// and fires at commit (or abort); for every other outcome — including
  /// kCommitted duplicates — the caller already has the answer and the
  /// completion is NOT retained. `command` must be in [1, kLogNoOp); range
  /// checking is the caller's job (the queue stores what it is given).
  ///
  /// Eviction visibility: with a nonzero TTL, a submission at seq > 1
  /// from a client with no session answers kSessionEvicted — a client
  /// mid-stream whose session was dropped must learn its retry window is
  /// gone instead of having the retry silently double-commit. Fresh
  /// clients start at seq 1 or call open_session() first.
  ///
  /// `trace` is the command's v1.4 trace id (0 = untraced); it rides the
  /// entry through pull/commit and surfaces on the CommitRecord.
  SubmitResult submit(std::uint64_t client, std::uint64_t seq,
                      std::uint64_t command, AppendCompletion done,
                      std::uint64_t trace = 0);

  /// (Re)creates the client's dedup session (idempotent) and returns the
  /// eviction TTL in microseconds (0 = never). Any thread. The SESSION_OPEN
  /// handshake lands here.
  std::int64_t open_session(std::uint64_t client);

  // --- pump side (owner thread) ------------------------------------------

  /// Next command to assign to a slot (moves the entry to the in-flight
  /// queue); 0 when nothing is pending.
  std::uint64_t pull();

  /// Batch form: moves up to `max` pending entries to the in-flight queue
  /// and appends their commands to `out` in FIFO order; returns the
  /// count. When `traces` is non-null it receives one trace id per moved
  /// entry, in lockstep with `out`.
  std::uint32_t pull_batch(std::uint32_t max, std::vector<std::uint64_t>& out,
                           std::vector<std::uint64_t>* traces = nullptr);

  /// Ticketed form for deployments where commits can resolve out of pull
  /// order (multi-node failover re-proposals): moves up to `max` pending
  /// entries into an internal *owned* batch keyed by a fresh ticket
  /// (returned via `ticket`, never 0) instead of the FIFO in-flight
  /// queue. The batch is resolved as a whole by commit_owned(), or by the
  /// abort paths.
  std::uint32_t pull_batch_owned(std::uint32_t max,
                                 std::vector<std::uint64_t>& out,
                                 std::uint64_t& ticket,
                                 std::vector<std::uint64_t>* traces = nullptr);

  struct CommitRecord {
    std::uint64_t client = 0;
    std::uint64_t seq = 0;
    std::uint64_t command = 0;
    std::uint64_t trace = 0;  ///< v1.4 trace id (0 = untraced)
  };

  /// The oldest in-flight entry committed at `index`: records the client
  /// session's outcome, fires the entry's completions, and returns the
  /// entry for the commit-event fan-out.
  CommitRecord commit_front(std::uint64_t index);

  /// Batch form: the oldest `count` in-flight entries committed at
  /// `first_index`, `first_index + 1`, ... Appends one record per entry to
  /// `recs` and fires every completion (outside the lock, in FIFO order) —
  /// the whole batch is acknowledged with one lock acquisition.
  void commit_batch(std::uint64_t first_index, std::uint32_t count,
                    std::vector<CommitRecord>& recs);

  /// Owned-batch commit: the entries pulled under `ticket` committed at
  /// `first_index`, ... — records the session outcomes, appends one
  /// record per entry to `recs`, fires the completions (outside the
  /// lock, batch order) and releases the ticket.
  void commit_owned(std::uint64_t ticket, std::uint64_t first_index,
                    std::vector<CommitRecord>& recs);

  /// Completions a deferred commit owes its clients: fire each with the
  /// paired index once the release condition (WAL durability, quorum of
  /// mirror acks) holds.
  using DeferredFire =
      std::vector<std::pair<AppendCompletion, std::uint64_t>>;

  /// quorum_ack variants of commit_batch/commit_owned: the entries ARE
  /// committed (session dedup records the outcome immediately — a retry
  /// observed after this call answers kCommitted) but the client
  /// completions are appended to `fire` instead of being invoked, so the
  /// caller can hold the acknowledgement until the batch is durable on a
  /// quorum. A duplicate submitted while an ack is deferred learns the
  /// commit early; that is the same (benign) race the non-deferred path
  /// has between commit and network delivery.
  void commit_batch_deferred(std::uint64_t first_index, std::uint32_t count,
                             std::vector<CommitRecord>& recs,
                             DeferredFire& fire);
  void commit_owned_deferred(std::uint64_t ticket, std::uint64_t first_index,
                             std::vector<CommitRecord>& recs,
                             DeferredFire& fire);

  /// Fails every entry that has not been pulled yet (log capacity
  /// exhausted): completions fire with `outcome`.
  void abort_pending(AppendOutcome outcome);

  /// Gives up the owned batch `ticket` (its entries will never be
  /// proposed again): completions fire with `outcome` and the ticket is
  /// released. Unknown tickets are ignored.
  void abort_owned(std::uint64_t ticket, AppendOutcome outcome);

  /// Teardown: answers every waiter — pending and in-flight — with
  /// `outcome`. Pending entries are dropped; in-flight entries stay (their
  /// slots may still decide under a racing sweep, and commit_front must
  /// find them) but their late commits fire nothing.
  void abort_all(AppendOutcome outcome);

  /// Pump-sweep session expiry (no-op when session_ttl_us == 0): drops
  /// every session idle since before `now_us - ttl` whose client has no
  /// pending or in-flight entry. `now_us` must be monotone across calls —
  /// it also timestamps subsequent submits. Scans are internally
  /// rate-limited to ~1/4 TTL, so calling once per sweep is fine.
  void evict_idle_sessions(std::int64_t now_us);

  struct Stats {
    std::size_t pending = 0;
    std::size_t in_flight = 0;       ///< FIFO in-flight + owned entries
    std::size_t sessions = 0;        ///< dedup map size
    std::uint64_t evicted = 0;       ///< sessions dropped by TTL, ever
  };
  Stats stats() const;

  std::size_t pending() const;
  std::size_t in_flight() const;
  /// Anything pending or in flight (one lock; the pump's pacing signal).
  bool has_work() const;
  std::int64_t session_ttl_us() const noexcept { return session_ttl_us_; }

 private:
  struct Entry {
    std::uint64_t client = 0;
    std::uint64_t seq = 0;
    std::uint64_t command = 0;
    std::uint64_t trace = 0;
    std::vector<AppendCompletion> completions;
  };

  /// Per-client session state for the dedup window.
  struct Session {
    std::uint64_t last_seq = 0;    ///< newest seq ever submitted
    std::uint64_t last_index = 0;  ///< commit index of last_seq, if committed
    bool committed = false;        ///< last_seq has committed
    bool any = false;              ///< a seq was ever submitted
    std::int64_t last_active_us = 0;  ///< sweep-clock time of last touch
  };

  /// Collects an entry's completions for firing outside the lock.
  static void take(Entry& e, std::vector<AppendCompletion>& out);

  /// Commits one entry's session outcome and collects its completions
  /// (under mu_).
  void commit_entry_locked(
      Entry& e, std::uint64_t index, std::vector<CommitRecord>& recs,
      std::vector<std::pair<AppendCompletion, std::uint64_t>>& fire);

  mutable std::mutex mu_;
  std::size_t max_pending_;
  std::int64_t session_ttl_us_;
  std::int64_t now_us_ = 0;        ///< last sweep clock seen (under mu_)
  std::int64_t last_scan_us_ = 0;  ///< last eviction scan (under mu_)
  std::uint64_t evicted_ = 0;
  std::uint64_t next_ticket_ = 1;
  std::deque<Entry> pending_;
  std::deque<Entry> inflight_;
  std::unordered_map<std::uint64_t, std::vector<Entry>> owned_;
  std::size_t owned_entries_ = 0;  ///< total entries across owned_
  std::unordered_map<std::uint64_t, Session> sessions_;
};

}  // namespace omega::smr
