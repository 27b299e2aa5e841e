// net::Client — blocking client of the LeaderServer wire protocol.
//
// One Client wraps one TCP connection and is meant for exactly one thread
// (the classic lease-holder pattern: query, fence on the epoch, renew).
// Requests are strictly one-at-a-time; server-pushed EVENT/COMMIT_EVENT
// frames that arrive interleaved with a response are queued internally and
// surfaced through next_event(), so a caller can hold watches and still
// issue queries on the same connection.
//
// Reconnects: a timeout or a desynchronized response poisons the stream,
// so the client closes the socket (the server's late answer must never be
// matched to a later request). With enable_auto_reconnect(), the next
// call redials the remembered endpoint under capped exponential backoff
// with jitter — so a caller's retry loop survives a server restart
// without its own dial logic. Subscriptions (WATCH and COMMIT_WATCH) are
// re-issued automatically on every reconnect, so watchers keep receiving
// pushes across a server restart; transitions spanning the outage arrive
// via the re-subscription snapshots (dedupe by epoch/commit index, as
// with any watch).
//
// Appends: append() submits one command with the (client, seq) dedup key
// and blocks until the commit acknowledgement. append_retry() adds the
// standard SMR client loop on top — kNotLeader and transport errors are
// retried with backoff, and the dedup key makes the retries idempotent:
// the command lands in the log exactly once even if the original
// submission actually committed.
//
// Pipelining: append_async() submits without waiting, so N appends can be
// outstanding on one connection (the server answers each when its command
// commits — possibly out of order, e.g. a rejection overtaking an earlier
// pending commit). Harvest acknowledgements with next_append_result().
// Responses are matched to submissions by req_id, so pipelined appends
// coexist with blocking calls on the same connection: a blocking call that
// encounters an async append's answer stashes it instead of treating the
// stream as desynchronized. The blocking append() is itself a wrapper —
// submit, then wait for that one req_id.
//
// Errors: socket-level failures and protocol violations throw NetError;
// application-level conditions (unknown group, not-leader, stale seq)
// come back as a Status in the result so callers can distinguish "the
// server is gone" from "the server said no".
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "net/frame.h"
#include "svc/svc_types.h"

namespace omega::net {

/// Transport or protocol failure on the client connection.
class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

/// Backoff schedule for automatic redials (and append_retry pauses):
/// attempt k sleeps min(base_ms << k, cap_ms), plus up to `jitter` of
/// itself (uniform), so a thundering herd of clients spreads out.
struct RetryPolicy {
  int base_ms = 10;
  int cap_ms = 1000;
  int max_attempts = 8;
  double jitter = 0.5;
  std::uint64_t seed = 0x5EEDCAFEULL;
};

class Client {
 public:
  /// A decoded answer to LEADER/WATCH/UNWATCH.
  struct Result {
    Status status = Status::kOk;
    svc::GroupId gid = 0;
    svc::LeaderView view;  ///< meaningful for kOk LEADER/WATCH answers

    bool ok() const noexcept { return status == Status::kOk; }
  };

  /// One server push: an epoch transition (kLeaderChange, `view` valid),
  /// an applied log entry (kCommit, `index`/`value` valid; `trace` is
  /// the originating append's trace id, 0 when untraced), or one
  /// complete sampler tick (kMetricsTick,
  /// `tick`/`health`/`samples` valid — multi-page METRICS_EVENT pushes
  /// are reassembled here and surface as one event per tick).
  struct Event {
    enum class Kind : std::uint8_t { kLeaderChange, kCommit, kMetricsTick };
    Kind kind = Kind::kLeaderChange;
    svc::GroupId gid = 0;
    svc::LeaderView view;
    std::uint64_t index = 0;
    std::uint64_t value = 0;
    std::uint64_t trace = 0;
    std::uint64_t tick = 0;   ///< sampler tick number
    std::uint8_t health = 0;  ///< obs::Health of the overall verdict
    std::vector<obs::MetricSample> samples;  ///< the tick's full scrape
  };

  /// A decoded APPEND answer.
  struct AppendResult {
    Status status = Status::kOk;
    std::uint64_t index = 0;  ///< commit position (kOk only)
    svc::LeaderView view;     ///< leader hint (kNotLeader redirects)
    /// The trace id this client minted for the append, echoed by the
    /// server. Join key for trace_dump() records and commit events.
    std::uint64_t trace = 0;

    bool ok() const noexcept { return status == Status::kOk; }
  };

  /// A decoded READ_LOG answer.
  struct LogView {
    Status status = Status::kOk;
    std::uint64_t commit_index = 0;
    std::vector<std::uint64_t> entries;
  };

  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects (throws NetError on refusal/timeout) and remembers the
  /// endpoint for reconnect()/auto-reconnect.
  void connect(const std::string& host, std::uint16_t port,
               int timeout_ms = 5000);
  bool connected() const noexcept { return fd_ >= 0; }
  void close();

  /// Redials the remembered endpoint under `policy` backoff; throws
  /// NetError once max_attempts dials failed. No-op when connected.
  void reconnect();

  /// From now on, any call made while disconnected redials first (see the
  /// header comment). Off by default: existing callers keep the strict
  /// "a dead connection throws" behaviour.
  void enable_auto_reconnect(RetryPolicy policy = {});

  /// Point query: who leads `gid`? The epoch in the result is the fencing
  /// token to validate cached authority against.
  Result leader(svc::GroupId gid);

  /// Subscribes to `gid`'s epoch changes; the result is the current
  /// snapshot. Transitions racing the subscription may be delivered both
  /// in the snapshot and as an event — dedupe by epoch.
  Result watch(svc::GroupId gid);

  Result unwatch(svc::GroupId gid);

  /// Appends `command` (in [1, 65534]) to `gid`'s replicated log under the
  /// (client, seq) dedup key; blocks until the commit acknowledgement (or
  /// a rejection Status), waiting at most `response_timeout_ms`. One
  /// shot: no retries, no redials. Acknowledgements of *other* (async)
  /// appends arriving first are stashed for next_append_result().
  AppendResult append(svc::GroupId gid, std::uint64_t client,
                      std::uint64_t seq, std::uint64_t command,
                      int response_timeout_ms = kResponseTimeoutMs);

  /// One completed pipelined append: `req_id` is append_async's return.
  struct AsyncAppend {
    std::uint64_t req_id = 0;
    AppendResult result;
  };

  /// Submits an append without waiting for the acknowledgement and
  /// returns its req_id. Any number may be outstanding; the server
  /// answers each when its command commits (or is rejected). Every
  /// submission mints a fresh non-zero 64-bit trace id that rides the
  /// request and comes back on the acknowledgement
  /// (AppendResult::trace) and the commit event — the join key for
  /// cross-process timeline stitching.
  std::uint64_t append_async(svc::GroupId gid, std::uint64_t client,
                             std::uint64_t seq, std::uint64_t command);

  /// The trace id minted by the most recent append submission (any form:
  /// async, blocking, retry) — lets a caller correlate before the
  /// acknowledgement arrives.
  std::uint64_t last_trace_id() const noexcept { return last_trace_; }

  /// Returns the next completed pipelined append — in completion order,
  /// not submission order — waiting up to `timeout_ms` (0 = only drain
  /// already-received frames). nullopt on timeout or when nothing is
  /// outstanding; the connection survives a timeout (late answers are
  /// still matched by req_id).
  std::optional<AsyncAppend> next_append_result(int timeout_ms);

  /// Pipelined appends submitted and not yet harvested.
  std::size_t outstanding_appends() const noexcept {
    return outstanding_appends_.size();
  }

  /// The connection's fd, for callers multiplexing many clients with
  /// poll/epoll (e.g. a load generator); -1 when disconnected. Do not
  /// read or write it directly.
  int native_handle() const noexcept { return fd_; }

  /// The standard SMR client loop: append() retried under the reconnect
  /// policy until it commits, a non-retryable Status comes back, or
  /// `timeout_ms` elapses (then throws NetError). Every wait — redial,
  /// response, backoff — is clamped to the remaining budget, so the
  /// timeout is honored to within one clamped connect attempt.
  /// kNotLeader and transport errors back off and retry — idempotent by
  /// the dedup key. kSessionEvicted re-opens the dedup session in place
  /// (SESSION_OPEN on the same connection) and resubmits immediately, so
  /// long-idle clients resume instead of erroring.
  AppendResult append_retry(svc::GroupId gid, std::uint64_t client,
                            std::uint64_t seq, std::uint64_t command,
                            int timeout_ms = 30000);

  /// Reads up to `max` applied entries of `gid`'s log starting at `from`.
  LogView read_log(svc::GroupId gid, std::uint64_t from, std::uint32_t max);

  /// Pages through the whole applied log (READ_LOG under the hood) until
  /// the commit index is covered or `max_entries` have been collected —
  /// the budget bounds client memory against an unexpectedly long log.
  /// `commit_index` in the result is the server's at the LAST page, so a
  /// log growing mid-pagination reports entries.size() < commit_index.
  LogView read_log_all(svc::GroupId gid, std::size_t max_entries = 1 << 20);

  /// A decoded READ (v1.6) answer. `status` tells which path answered:
  /// kLeaseRead (leader, lease valid — linearizable), kIndexRead
  /// (follower past the fence), kOk (leader committed read, leases
  /// disabled), kNotLeader (refused; `view` is the redirect hint, the
  /// data fields are an unverified hint), kOverloaded (fence wait timed
  /// out or waiter budget exhausted — retry).
  struct ReadResult {
    Status status = Status::kOk;
    std::uint64_t index = 0;  ///< key's applied position + 1; 0 = absent
    std::uint64_t commit_index = 0;  ///< answering replica's applied length
    svc::LeaderView view;            ///< leader hint + fencing epoch

    /// True when the read was ANSWERED (any of the three read paths).
    bool ok() const noexcept {
      return status == Status::kLeaseRead || status == Status::kIndexRead ||
             status == Status::kOk;
    }
  };

  /// Point read of `key`'s latest applied position in `gid`'s log;
  /// blocks for the answer. `min_index` floors the follower fence for
  /// read-your-writes across a routing switch (0 = server's own fence).
  ReadResult read(svc::GroupId gid, std::uint64_t key,
                  std::uint64_t min_index = 0,
                  int response_timeout_ms = kResponseTimeoutMs);

  /// One completed pipelined read: `req_id` is read_async's return.
  struct AsyncRead {
    std::uint64_t req_id = 0;
    ReadResult result;
  };

  /// Submits a point read without waiting; any number may be
  /// outstanding. Harvest with next_read_result() (completion order).
  std::uint64_t read_async(svc::GroupId gid, std::uint64_t key,
                           std::uint64_t min_index = 0);

  /// Next completed pipelined read, waiting up to `timeout_ms` (0 = only
  /// drain already-received frames). nullopt on timeout or when nothing
  /// is outstanding; the connection survives a timeout.
  std::optional<AsyncRead> next_read_result(int timeout_ms);

  /// Pipelined reads submitted and not yet harvested.
  std::size_t outstanding_reads() const noexcept {
    return outstanding_reads_.size();
  }

  /// Subscribes to `gid`'s commit pushes; `index` in the result is the
  /// commit-index snapshot (entries below it are readable via read_log).
  AppendResult commit_watch(svc::GroupId gid);
  Result commit_unwatch(svc::GroupId gid);

  /// SESSION_OPEN handshake answer.
  struct SessionInfo {
    Status status = Status::kOk;
    std::int64_t ttl_us = 0;  ///< dedup-session TTL (0 = never evicted)

    bool ok() const noexcept { return status == Status::kOk; }
  };

  /// (Re)opens this client's dedup session on `gid` and learns the
  /// server's session TTL. Required before appending with seq > 1 as the
  /// first submission on a TTL-bounded group, and after an append
  /// answered kSessionEvicted (the retry window was lost; re-open and
  /// continue with fresh seqs).
  SessionInfo open_session(svc::GroupId gid, std::uint64_t client);

  /// Round-trip liveness probe.
  void ping();

  /// A complete METRICS scrape (all pages merged).
  struct MetricsResult {
    Status status = Status::kOk;
    /// The serving node's identity; kNoNodeId from single-node servers.
    /// Lets a scraper that merges several endpoints label each sample set.
    std::uint32_t node = kNoNodeId;
    std::vector<obs::MetricSample> metrics;

    bool ok() const noexcept { return status == Status::kOk; }
    /// The sample named `name`, or nullptr.
    const obs::MetricSample* find(const std::string& name) const noexcept;
  };

  /// Scrapes the server's metric registry (v1.3 METRICS), transparently
  /// following the pagination until every sample has been fetched.
  MetricsResult metrics();

  /// A complete TRACE_DUMP scrape (all pages merged, deduplicated).
  struct TraceDumpResult {
    Status status = Status::kOk;
    /// CLOCK_REALTIME - steady anchor of the scraped process: add to a
    /// record's steady `ts_ns` to place it on the shared wall clock.
    std::int64_t realtime_offset_ns = 0;
    /// Oldest-first after the merge (the wire pages newest-first).
    std::vector<obs::TraceRecord> records;

    bool ok() const noexcept { return status == Status::kOk; }
  };

  /// Scrapes the server's flight-recorder rings (v1.4 TRACE_DUMP),
  /// following the newest-first pagination until the snapshot is
  /// covered. Records the rings churned out between pages surface as
  /// duplicates and are dropped here; the result is sorted oldest-first.
  TraceDumpResult trace_dump();

  /// The server's health verdict as of its last sampler tick (v1.5).
  struct HealthResult {
    Status status = Status::kOk;
    std::uint8_t overall = 0;     ///< obs::Health value
    std::uint64_t ticks = 0;      ///< sampler evaluations so far
    std::uint8_t rules_total = 0; ///< registered rules
    std::vector<HealthRuleWire> firing;  ///< non-ok rules with reasons

    bool ok() const noexcept { return status == Status::kOk; }
  };

  /// One HEALTH round-trip. kUnsupported from servers running without a
  /// sampler.
  HealthResult health();

  /// METRICS_WATCH answer: the sampler period the pushes will arrive at.
  struct MetricsWatchResult {
    Status status = Status::kOk;
    std::uint32_t period_ms = 0;

    bool ok() const noexcept { return status == Status::kOk; }
  };

  /// Subscribes this connection to the server's sampler stream: every
  /// tick arrives as a kMetricsTick event via next_event(). Re-issued
  /// automatically after a reconnect, like the other subscriptions.
  MetricsWatchResult metrics_watch();

  /// Returns the next pushed event, waiting up to `timeout_ms` (0 = only
  /// drain already-received frames). nullopt on timeout.
  std::optional<Event> next_event(int timeout_ms);

 private:
  /// Sends the request and waits for its response; pushes and async
  /// answers arriving first are queued.
  Response call(MsgType type, std::optional<WireGroupId> gid,
                int response_timeout_ms = kResponseTimeoutMs);
  /// Same for a request already encoded in out_; `response_timeout_ms`
  /// bounds the wait (append_retry passes its remaining budget). Closes
  /// the connection and throws on timeout.
  Response call_encoded(MsgType type, std::uint64_t id,
                        int response_timeout_ms = kResponseTimeoutMs);
  /// Redials if auto-reconnect is on and the connection is down.
  void ensure_connected();
  /// Starts a request: connected, out_ empty; returns its fresh req_id.
  std::uint64_t begin_request();
  /// Re-issues every tracked WATCH/COMMIT_WATCH on a fresh connection;
  /// each snapshot wait is bounded by `response_timeout_ms` so callers
  /// with a budget (append_retry) can clamp the whole redial.
  void resubscribe(int response_timeout_ms = kResponseTimeoutMs);
  /// One dial to the remembered endpoint (throws NetError).
  void dial(int timeout_ms);

  void send_all(const std::uint8_t* data, std::size_t len);
  /// Reads one socket chunk into the decoder, waiting up to `timeout_ms`.
  /// Returns false on timeout; throws on EOF/error.
  bool fill(int timeout_ms);
  /// Pops the next complete frame out of the decoder, if any.
  std::optional<Response> pop_frame();
  /// Queues a pushed frame; true if `f` was one.
  bool queue_event(const Response& f);
  /// Files a received frame: pushes into events_, async answers into
  /// done_appends_/done_reads_, the blocking call's answer into reply_.
  /// False if the frame answers nothing outstanding (a desync).
  bool absorb(Response& f);
  /// The one wait loop: absorbs frames until `done()` holds (true) or
  /// `deadline` passes (false). Throws, closing the connection, on a
  /// frame absorb() cannot place.
  template <class Done>
  bool wait_until(std::chrono::steady_clock::time_point deadline, Done done);
  /// Pops the front of `q`, waiting up to `timeout_ms` for one to arrive;
  /// nullopt on timeout (the connection stays usable).
  template <class T>
  std::optional<T> pop_when_ready(std::deque<T>& q, int timeout_ms);
  /// Waits for the async answer `id` to land in `done` and takes it;
  /// closes the connection and throws on timeout.
  template <class Async>
  Async await_async(std::deque<Async>& done, std::uint64_t id,
                    int timeout_ms);
  /// Requests the METRICS or TRACE_DUMP pages of one scrape in turn,
  /// handing each to `take` (which returns its record count), until the
  /// scrape's total is covered. Returns the first non-kOk status.
  template <class Page, class Take>
  Status page_through(MsgType type, Take take);
  static AppendResult to_append_result(const Response& f);
  static ReadResult to_read_result(const Response& f);

  /// Mints the next non-zero trace id (splitmix64 over a per-client
  /// salt), remembered in last_trace_.
  std::uint64_t mint_trace_id();

  int fd_ = -1;
  std::uint64_t next_req_id_ = 1;
  std::uint64_t trace_seq_ = 0;   ///< mint counter (salted per client)
  std::uint64_t last_trace_ = 0;  ///< newest minted id
  FrameDecoder in_;
  std::deque<Event> events_;
  std::vector<std::uint8_t> out_;
  std::unordered_set<std::uint64_t> outstanding_appends_;
  std::deque<AsyncAppend> done_appends_;
  std::unordered_set<std::uint64_t> outstanding_reads_;
  std::deque<AsyncRead> done_reads_;
  /// The blocking call in flight (id 0 = none) and its answer once seen.
  std::uint64_t call_id_ = 0;
  MsgType call_type_ = MsgType::kPing;
  std::optional<Response> reply_;
  /// Live subscriptions, by channel — re-issued after every reconnect.
  std::unordered_set<svc::GroupId> watched_gids_;
  std::unordered_set<svc::GroupId> commit_watched_gids_;
  bool metrics_watched_ = false;
  /// METRICS_EVENT tick reassembly: pages of the tick being collected.
  /// A page for a different tick than the one in progress (head page
  /// missed — subscribed mid-tick) is discarded; only complete ticks
  /// surface as events.
  std::uint64_t pending_tick_ = 0;
  std::uint8_t pending_health_ = 0;
  bool pending_tick_open_ = false;
  std::vector<obs::MetricSample> pending_samples_;

  std::string host_;
  std::uint16_t port_ = 0;
  int connect_timeout_ms_ = 5000;
  bool auto_reconnect_ = false;
  RetryPolicy policy_;
  Rng backoff_rng_{0x5EEDCAFEULL};

  /// Response wait budget; generous because CI boxes can stall for a
  /// while, and a commit acknowledgement legitimately waits for consensus.
  static constexpr int kResponseTimeoutMs = 30000;
  /// Bound on buffered pushes: beyond it the oldest event is dropped
  /// (subscribers resynchronize by epoch/commit index).
  static constexpr std::size_t kMaxQueuedEvents = 65536;
};

/// Round-robin point-read router over several node endpoints (v1.6).
///
/// Spreads reads across the deployment — followers answer via read-index,
/// the leader's node via its lease — and rotates away from endpoints that
/// answer kNotLeader/kOverloaded or fail at transport level. The router
/// remembers the highest commit_index any answer carried and passes it as
/// every read's min_index, so a routing switch never observes the log
/// moving backwards (monotonic session reads: a follower that has not yet
/// applied that far parks the read instead of answering stale).
class ReadRouter {
 public:
  struct Endpoint {
    std::string host;
    std::uint16_t port = 0;
  };

  explicit ReadRouter(std::vector<Endpoint> endpoints);

  /// Point read with failover: rotates through the endpoints (dialing
  /// lazily) until one answers, trying each at most twice. Throws
  /// NetError when every endpoint fails at transport level; refusals
  /// (kNotLeader/kOverloaded everywhere) come back as the last refusal.
  Client::ReadResult read(svc::GroupId gid, std::uint64_t key,
                          int response_timeout_ms = 5000);

  /// The monotonic session floor (highest observed commit_index).
  std::uint64_t session_floor() const noexcept { return floor_; }

  /// The endpoint index the NEXT read will try first (tests/telemetry).
  std::size_t cursor() const noexcept { return next_; }

 private:
  std::vector<Endpoint> endpoints_;
  std::vector<std::unique_ptr<Client>> clients_;  ///< lazily dialed
  std::size_t next_ = 0;
  std::uint64_t floor_ = 0;
};

}  // namespace omega::net
