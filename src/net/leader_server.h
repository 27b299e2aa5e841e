// LeaderServer: the TCP front-end of the multi-group leader service.
//
// Topology: one listening socket (owned by loop 0, which doubles as the
// acceptor) and N independent IO threads, each running one epoll
// EventLoop. Accepted connections are assigned to loops round-robin; from
// then on every byte of that connection is handled by exactly one thread,
// so connection state needs no locks.
//
// Hot path: a LEADER request is answered entirely on the IO thread that
// read it — registry shard-map lookup plus one atomic LeaderCacheEntry
// load (svc::MultiGroupLeaderService::try_leader) — with no hop to any
// other thread. Watches are push-based: start() installs the svc epoch
// listener, so a shard worker that publishes a new view hands (gid, view)
// to the WatchHub, which posts one delivery task per interested loop; the
// loop writes EVENT frames to its watching connections.
//
// Replicated-log serving (optional, via serve_log()): APPEND commands are
// handed to the SmrService and answered *asynchronously* — the IO thread
// parks the request (loop, connection serial, req_id) inside the append
// completion, and when the owning shard worker commits the command the
// completion posts the response back to the connection's loop. A
// connection serial guards against fd reuse between park and completion.
// READ_LOG is answered synchronously from the applied log; COMMIT_WATCH
// mirrors WATCH on the hub's commit channel.
//
// Lifecycle: construct (binds + listens, so port() is valid immediately),
// start() (spawns the IO threads and installs the epoch listener), stop()
// (uninstalls the listeners, detaches pending append completions, stops
// loops, closes every socket). The server must be stopped before the
// MultiGroupLeaderService/SmrService it serves.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/event_loop.h"
#include "net/frame.h"
#include "net/watch_hub.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "smr/smr_service.h"
#include "svc/multigroup_service.h"

namespace omega::net {

struct NetConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  std::uint32_t io_threads = 1;
  /// Accepted connections beyond this are closed immediately (fd budget).
  std::uint32_t max_connections = 4096;
  /// Backpressure: a connection whose unsent output (queued responses +
  /// watch events behind a peer that stopped reading) exceeds this is
  /// closed — one slow consumer must not grow server memory unboundedly.
  std::size_t max_outbuf_bytes = 1 << 20;
  /// Black-box sampler period (obs::Sampler): every period the server
  /// snapshots the metric registry into the in-process time series,
  /// evaluates the health rules, and (if anyone subscribed via
  /// METRICS_WATCH) streams the tick as METRICS_EVENT frames. 0 disables
  /// the sampler entirely (HEALTH/METRICS_WATCH answer kUnsupported).
  std::uint32_t sample_period_ms = 250;
  /// Identity stamped into the METRICS response trailer (v1.5) so merged
  /// multi-endpoint scrapes can label samples; kNoNodeId = anonymous.
  std::uint32_t node_id = kNoNodeId;
};

/// Aggregate server counters (in-process; the wire exposes the
/// `net.frames.<type>` metrics through METRICS instead).
struct NetServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t connections = 0;  ///< currently open
  std::uint64_t queries = 0;
  std::uint64_t watches = 0;  ///< active (gid, connection) pairs
  std::uint64_t events = 0;   ///< EVENT frames written
  std::uint64_t protocol_errors = 0;
  std::uint64_t slow_closed = 0;  ///< closed for exceeding max_outbuf_bytes
  std::uint64_t appends = 0;        ///< APPEND requests accepted into the log
  std::uint64_t commit_events = 0;  ///< COMMIT_EVENT frames written
  std::uint64_t log_reads = 0;      ///< READ_LOG requests served
  std::uint64_t point_reads = 0;    ///< READ (v1.6) requests served
};

class LeaderServer {
 public:
  /// Binds and listens immediately (throws InvariantViolation on failure),
  /// but serves nothing until start().
  LeaderServer(svc::MultiGroupLeaderService& service, NetConfig cfg = {});
  ~LeaderServer();

  LeaderServer(const LeaderServer&) = delete;
  LeaderServer& operator=(const LeaderServer&) = delete;

  /// Attaches the replicated-log service this server fronts. Must be
  /// called before start(); without it the log frame types answer
  /// kUnsupported.
  void serve_log(smr::SmrService& smr);

  /// Spawns the IO threads and installs the epoch listener. Once.
  void start();

  /// Stops IO threads, closes all connections, clears the epoch listener.
  /// Idempotent.
  void stop();

  /// The bound port (resolves cfg.port == 0 to the kernel-chosen one).
  std::uint16_t port() const noexcept { return port_; }

  NetServerStats stats() const;

  /// The black-box sampler (time series + health engine), or nullptr when
  /// cfg.sample_period_ms == 0. Subsystems hosted behind this server use
  /// it to register additional health rules before start().
  obs::Sampler* sampler() noexcept { return sampler_.get(); }

 private:
  /// One accepted connection; owned by exactly one loop's thread.
  struct Connection {
    int fd = -1;
    std::uint32_t loop = 0;
    /// Monotonic per-server id: append completions address connections by
    /// (loop, fd, serial) so a recycled fd never receives a stale answer.
    std::uint64_t serial = 0;
    FrameDecoder in;
    std::vector<std::uint8_t> out;  ///< unsent bytes [out_pos, end)
    std::size_t out_pos = 0;
    bool want_write = false;  ///< EPOLLOUT currently armed
    std::unordered_set<svc::GroupId> watches;
    std::unordered_set<svc::GroupId> commit_watches;
    bool metrics_watch = false;  ///< subscribed to the sampler stream
  };

  /// gid → connections on a loop subscribed to one push channel
  /// (loop-confined).
  using WatcherMap = std::unordered_map<svc::GroupId, std::vector<Connection*>>;

  /// One parked acknowledgement awaiting delivery on its loop: an append
  /// commit, or a follower fence read whose wait just resolved (v1.6).
  /// Both ride the same mailbox so ordering between a client's appends
  /// and its deferred reads is preserved per loop.
  struct PendingAck {
    enum class Kind : std::uint8_t { kAppend, kRead };
    Kind kind = Kind::kAppend;
    int fd = -1;
    std::uint64_t serial = 0;
    std::uint64_t req_id = 0;
    svc::GroupId gid = 0;
    smr::AppendOutcome outcome = smr::AppendOutcome::kAborted;
    std::uint64_t index = 0;  ///< append: log index; read: key index
    std::uint64_t trace = 0;  ///< appends: echoed on the v1.4 response
    std::uint64_t key = 0;           ///< reads: echoed key
    std::uint64_t commit_index = 0;  ///< reads: applied length at fire
    Status read_status = Status::kOk;  ///< reads: kIndexRead/kOverloaded
    /// Mailbox entry time; drain_acks records mailbox -> wire-encode into
    /// the net.ack_flush_ns histogram.
    std::int64_t enqueue_ns = 0;
  };

  /// Per-IO-thread state. Only `counters` and the ack mailbox are touched
  /// cross-thread.
  struct Loop {
    EventLoop loop;
    std::thread thread;
    std::unordered_map<int, std::unique_ptr<Connection>> conns;
    WatcherMap watchers;         ///< epoch channel (WATCH)
    WatcherMap commit_watchers;  ///< commit channel (COMMIT_WATCH)
    /// Connections subscribed to the metrics stream (METRICS_WATCH);
    /// loop-confined like the maps above.
    std::vector<Connection*> metrics_watchers;
    /// Ack mailbox: completions (owning shard worker) append here and
    /// schedule at most ONE drain task — a 64-command batch costs the
    /// loop one wakeup and each touched connection one flush, instead of
    /// one task + one send() per acknowledgement.
    std::mutex ack_mu;
    std::vector<PendingAck> acks;      ///< guarded by ack_mu
    bool ack_drain_scheduled = false;  ///< guarded by ack_mu
    std::vector<PendingAck> ack_scratch;  ///< loop-thread-only
    struct Counters {
      std::atomic<std::uint64_t> accepted{0};
      std::atomic<std::uint64_t> closed{0};
      std::atomic<std::uint64_t> queries{0};
      std::atomic<std::uint64_t> watches{0};  ///< current, not cumulative
      std::atomic<std::uint64_t> events{0};
      std::atomic<std::uint64_t> protocol_errors{0};
      std::atomic<std::uint64_t> slow_closed{0};
      std::atomic<std::uint64_t> appends{0};
      std::atomic<std::uint64_t> commit_events{0};
      std::atomic<std::uint64_t> log_reads{0};
      std::atomic<std::uint64_t> point_reads{0};  ///< READ requests served
    } counters;
  };

  /// Handle shared with in-flight append completions. A completion that
  /// outlives the serving phase (command commits after stop(), or never)
  /// must become a no-op: stop() nulls `server` under the mutex, and the
  /// completion only posts while holding it.
  struct AppendSink {
    std::mutex mu;
    LeaderServer* server = nullptr;
  };

  void open_listener();
  void on_accept();
  void adopt_connection(std::uint32_t loop_idx, int fd);
  void on_io(std::uint32_t loop_idx, int fd, std::uint32_t events);
  /// Returns false if the frame was a protocol violation and the
  /// connection was closed (the caller must stop touching `c`).
  bool handle_frame(Loop& l, Connection& c, const Request& req);
  /// READ: synchronous modes answer into c.out; a deferred fence read
  /// parks a PendingAck{kRead} completion that rides the loop's ack
  /// mailbox.
  void handle_read(Loop& l, Connection& c, std::uint64_t req_id,
                   const ReadReqBody& req);
  void deliver_event(std::uint32_t loop_idx, svc::GroupId gid,
                     svc::LeaderView view);
  /// One delivery per applied batch: encodes COMMIT_EVENT frames for
  /// every entry into each subscriber's buffer and flushes once.
  /// `traces` is empty (untraced) or in lockstep with `values`.
  void deliver_commit_batch(std::uint32_t loop_idx, svc::GroupId gid,
                            std::uint64_t first_index,
                            const std::vector<std::uint64_t>& values,
                            const std::vector<std::uint64_t>& traces);
  /// Called from an append completion (owning shard worker): parks the
  /// acknowledgement in the loop's mailbox and wakes the loop at most
  /// once per backlog.
  void enqueue_ack(std::uint32_t loop_idx, PendingAck ack);
  /// Runs on the loop thread: encodes every parked acknowledgement into
  /// its connection's buffer (dropping silently if the connection is gone
  /// or its fd recycled), then flushes each touched connection once.
  void drain_acks(std::uint32_t loop_idx);
  /// Writes as much of c.out as the socket takes; arms/disarms EPOLLOUT.
  /// Returns false if the connection died.
  bool flush(Loop& l, Connection& c);
  void close_connection(Loop& l, Connection& c);
  /// Drops one (gid, connection) subscription from the hub and the loop's
  /// watcher list (does not touch c.watches/c.commit_watches — callers
  /// own those sets).
  void drop_watch(Loop& l, Connection& c, svc::GroupId gid);
  void drop_commit_watch(Loop& l, Connection& c, svc::GroupId gid);
  /// Shared body of the two drops: unlinks `c` from `map[gid]` and
  /// decrements the watch gauge.
  void unlink_watcher(Loop& l, WatcherMap& map, Connection& c,
                      svc::GroupId gid);
  /// Shared body of the push deliveries: `write`s into every target's
  /// buffer and flushes it, with the fd-snapshot discipline (flushing one
  /// target can close a sibling, which must be detected by key lookup,
  /// never by pointer).
  void fan_out(Loop& l, const std::vector<Connection*>& targets,
               const std::function<void(Connection&)>& write);
  /// Runs on the loop thread (posted by the hub's metrics channel): writes
  /// the shared pre-encoded METRICS_EVENT tick to every subscribed
  /// connection on the loop.
  void deliver_metrics(std::uint32_t loop_idx,
                       std::shared_ptr<const std::vector<std::uint8_t>> bytes);
  /// Drops a connection's metrics-stream subscription (connection close).
  void drop_metrics_watch(Loop& l, Connection& c);

  svc::MultiGroupLeaderService& service_;
  smr::SmrService* smr_ = nullptr;
  /// Per-frame-type obs counters ("net.frames.<type>"), indexed by the
  /// wire type byte; [0] is the fallback for unknown types. Resolved once
  /// at construction so the dispatch path never touches the registry lock.
  static constexpr std::size_t kFrameCounterSlots = 22;
  obs::Counter* frame_counters_[kFrameCounterSlots] = {};
  obs::Histogram* ack_flush_hist_ = nullptr;  ///< net.ack_flush_ns
  std::shared_ptr<AppendSink> append_sink_;
  std::atomic<std::uint64_t> next_serial_{1};
  NetConfig cfg_;
  int listen_fd_ = -1;
  /// Sacrificial fd released under EMFILE so the backlog can be accepted
  /// and shed (closed) instead of hanging: with EPOLLET, connections left
  /// in the backlog would never re-announce themselves.
  int reserve_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::unique_ptr<WatchHub> hub_;
  /// Black-box sampler: created at construction (so hosted subsystems can
  /// add rules), thread started in start(), stopped first in stop() —
  /// its tick listener posts into the loops via the hub.
  std::unique_ptr<obs::Sampler> sampler_;
  std::uint32_t next_loop_ = 0;  ///< round-robin assignment (loop 0 only)
  std::atomic<std::uint64_t> open_connections_{0};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace omega::net
