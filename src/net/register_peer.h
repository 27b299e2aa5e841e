// Register push transport (wire protocol v1.2): the network half of the
// multi-process register mirror (registers/mirror.h).
//
// Topology: every node runs one MirrorTransport — one epoll EventLoop on
// its own thread owning (a) a listening socket that accepts *inbound*
// push streams from peers and (b) one RegisterPeer per remote node, the
// *outbound* stream. A stream opens with REG_HELLO (the sender's node
// id), then carries REG_PUSH frames — batches of (cell, value) updates of
// one group — strictly FIFO; the receiver applies each frame in order to
// the group's MirroredMemory and answers REG_ACK (cumulative frame seq)
// on the same connection.
//
// Write path: the MirroredMemory's write observer calls on_local_write()
// from the owning worker thread for every store to a cell this node is
// responsible for. The transport appends the update to each peer's
// pending queue (coalescing immediate re-writes of the same cell — the
// only elision that cannot reorder across cells) and schedules at most
// one flush task per backlog, so a burst of writes costs the loop one
// wakeup. A flush drains the queue into REG_PUSH frames of up to
// kMaxPushCells updates, so dirty cells coalesce into few syscalls.
//
// Ordering guarantee: one stream per (sender, receiver) pair, appended in
// write order, flushed in order, applied in order ⇒ every mirror holds a
// prefix of each sender's write sequence. That is the whole correctness
// story of the mirror (per-cell monotonicity AND cross-cell
// happens-before of a single node, e.g. "spill rows before their seal").
//
// Reconnects: an outbound stream that drops redials on a timer; on
// (re)connect the peer's queue is rebuilt as a *snapshot* — the current
// value of every cell this node ever wrote — so the receiver converges
// regardless of what the dead connection lost. (A snapshot is a legal
// stream: it is a suffix-compressed replay of the sender's history, and
// per-cell values are monotone-refreshed to the sender's present.)
//
// Liveness: peer_live() says whether a peer's stream is connected and
// its acks keep coming. The SMR leader waits for the apply cursor of
// every live follower before it reuses a spill-ring row (smr/log_group.h)
// and stops waiting for one that is not live. max_unacked_frames() (the
// deepest sent - acked backlog) is a gauge only. Ack round trips double
// as the push-lag measurement surfaced in bench_e16.
//
// Durability hooks (quorum_ack, PR 9): every on_local_write advances a
// global *write watermark*; each flushed push batch carries a cover mark
// (frame seq -> watermark), and a peer's cumulative ack therefore yields
// "this node has applied every local write up to W" — acked_marks()
// exposes those per-peer watermarks so the SMR layer can hold an append's
// acknowledgement until a quorum of nodes covers the sealed batch. On the
// inbound side an optional *journal* seam appends pushed durable-floor
// cells to the local WAL and defers the REG_ACK until the WAL reports
// them durable (release_durable_acks, driven by the Wal's durable
// listener) — so a peer's ack attests "applied AND journaled", which is
// what makes a quorum of acks mean a quorum of WALs.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "registers/mirror.h"
#include "svc/svc_types.h"

namespace omega::net {

/// One remote node of the mirror mesh.
struct MirrorPeerConfig {
  std::uint32_t node = 0;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< the peer's MirrorTransport listen port
};

struct MirrorConfig {
  std::uint32_t node = 0;  ///< this node's id (unique across the mesh)
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  std::vector<MirrorPeerConfig> peers;
  /// Redial cadence for dropped outbound streams (also the granularity of
  /// the transport's internal timer).
  int reconnect_ms = 100;
  /// A peer whose unsent bytes exceed this is cut and resynced by
  /// snapshot on reconnect (one slow peer must not grow memory forever).
  std::size_t max_outbuf_bytes = 32u << 20;
  /// A connected peer with outstanding frames and NO ack progress for
  /// this long stops counting as live (peer_live) and toward
  /// max_unacked_frames(): a frozen box (SIGSTOP, deep swap, a partition
  /// that keeps TCP established) must not hold the leader's sealing back
  /// forever. 0 disables the escape hatch.
  std::int64_t ack_stall_us = 3000000;
};

struct MirrorStats {
  std::uint64_t pushed_frames = 0;
  std::uint64_t pushed_cells = 0;
  std::uint64_t acked_frames = 0;
  std::uint64_t applied_frames = 0;  ///< inbound pushes applied
  std::uint64_t applied_cells = 0;
  std::uint64_t coalesced = 0;   ///< writes absorbed by adjacent dedup
  std::uint64_t reconnects = 0;  ///< outbound dials after the first
  std::uint64_t snapshots = 0;   ///< snapshot resyncs sent
  std::uint64_t resyncs = 0;     ///< force_resync() hammer drops
  std::uint64_t connected_peers = 0;
  std::uint64_t max_unacked = 0;  ///< current deepest per-peer backlog
};

class MirrorTransport {
 public:
  explicit MirrorTransport(MirrorConfig cfg);
  ~MirrorTransport();

  MirrorTransport(const MirrorTransport&) = delete;
  MirrorTransport& operator=(const MirrorTransport&) = delete;

  /// The bound listen port (valid immediately after construction).
  std::uint16_t port() const noexcept { return port_; }

  /// Registers a group's mirror: inbound pushes for `gid` apply to `mem`,
  /// and on_local_write(gid, ...) becomes legal. `mem` must outlive the
  /// transport or be removed first. Any thread, also while running.
  void add_group(svc::GroupId gid, MirroredMemory* mem);
  void remove_group(svc::GroupId gid);

  /// Spawns the loop thread and starts dialling peers. Once.
  void start();
  /// Stops the loop, closes every stream. Idempotent.
  void stop();

  /// Write-observer entry point (owning worker thread): forward one local
  /// store to every peer, FIFO. The caller filters with
  /// MirroredMemory::should_push.
  void on_local_write(svc::GroupId gid, Cell c, std::uint64_t v);

  /// Deepest (sent - acked) push-frame backlog over live peers (the
  /// mirror.max_unacked gauge). Disconnected peers don't count (they
  /// resync by snapshot).
  std::uint64_t max_unacked_frames() const;

  /// Whether node `node`'s stream is live: connected, and acking within
  /// MirrorConfig::ack_stall_us whenever frames are outstanding. False
  /// for unknown nodes. Any thread.
  bool peer_live(std::uint32_t node) const;

  /// Cuts every stream (inbound and outbound) so both directions rebuild
  /// with fresh snapshots — the big hammer a node reaches for when its
  /// mirror looks wedged (e.g. a decided slot whose payload never
  /// arrives). Safe anytime; any thread.
  void force_resync();

  std::uint64_t connected_peers() const;

  // --- durability hooks (quorum_ack) ---------------------------------------

  /// Count of local writes ever observed (the write watermark). A sealed
  /// batch is covered by every write up to the value read after its last
  /// store.
  std::uint64_t write_seq() const noexcept {
    return write_seq_.load(std::memory_order_acquire);
  }

  /// Per-peer cumulative coverage: (node id, newest write watermark the
  /// peer has acknowledged applying — and journaling, when the far side
  /// runs an inbound journal). Monotone across reconnects: an ack means
  /// the writes are applied to the peer's mirror, which survives the
  /// connection.
  void acked_marks(
      std::vector<std::pair<std::uint32_t, std::uint64_t>>& out) const;

  /// Inbound journal seam: called (loop thread) for every cell applied
  /// from a REG_PUSH; returns the WAL record seq the cell was appended
  /// under, or 0 when the cell needs no journaling (below the durable
  /// floor). When installed, a frame that journaled anything has its
  /// REG_ACK deferred until release_durable_acks() covers the frame's
  /// newest record — and later frames queue behind it, keeping acks
  /// cumulative. Install before start().
  using InboundJournal =
      std::function<std::uint64_t(svc::GroupId, std::uint32_t, std::uint64_t)>;
  void set_inbound_journal(InboundJournal journal);

  /// Invoked on the transport's loop thread whenever some peer's acked
  /// write watermark advances (acked_marks moved) — the quorum-progress
  /// event that can release held acknowledgements. Must be cheap and
  /// non-blocking. Install before start().
  void set_ack_listener(std::function<void()> listener);

  /// WAL durability advanced through `durable_seq`: releases every
  /// deferred inbound ack whose records are covered. Any thread (the
  /// Wal's durable listener calls it from the flusher thread).
  void release_durable_acks(std::uint64_t durable_seq);

  MirrorStats stats() const;

  /// Copies the recent ack round-trip samples (nanoseconds, newest-last;
  /// bounded ring). The bench derives push-lag percentiles from these.
  void lag_samples(std::vector<std::int64_t>& out) const;

 private:
  struct PendingWrite {
    svc::GroupId gid = 0;
    std::uint32_t cell = 0;
    std::uint64_t value = 0;
  };

  /// One outbound push stream (loop thread only, except `pending` and the
  /// connected/backlog atomics).
  struct RegisterPeer {
    MirrorPeerConfig cfg;
    int fd = -1;
    bool hello_sent = false;
    FrameDecoder in;  ///< carries the peer's REG_ACK frames
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
    bool want_write = false;
    std::uint64_t sent_seq = 0;
    std::uint64_t acked_seq = 0;
    bool ever_connected = false;  ///< a hello was sent at least once
    /// (seq, send time ns) of *sampled* unacked pushes: every
    /// kLagSampleEvery-th frame is stamped here, so the lag measurement
    /// costs the push hot path one branch (and the ack path takes lag_mu_
    /// only when a sampled frame is covered, ~1/N of acks).
    std::vector<std::pair<std::uint64_t, std::int64_t>> sent_times;
    /// (frame seq, write watermark covered once that frame is acked):
    /// one mark per flushed batch, popped by the cumulative ack.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover_marks;
    std::atomic<bool> connected{false};
    std::atomic<std::uint64_t> backlog{0};  ///< sent - acked
    /// Last instant the peer made ack progress (or (re)connected) —
    /// read against MirrorConfig::ack_stall_us by live().
    std::atomic<std::int64_t> last_ack_ns{0};
    /// Newest write watermark this peer has acked (never reset: acked
    /// means applied, and the peer's mirror outlives the connection).
    std::atomic<std::uint64_t> acked_wseq{0};
  };

  /// One accepted inbound stream (loop thread only).
  struct Inbound {
    int fd = -1;
    std::uint32_t node = kNoNode;
    FrameDecoder in;
    std::vector<std::uint8_t> out;  ///< hello response + acks
    std::size_t out_pos = 0;
    bool want_write = false;
    /// Acks gated on WAL durability: (push frame seq, WAL record seq it
    /// waits for), FIFO. Drained by release_durable_acks.
    std::deque<std::pair<std::uint64_t, std::uint64_t>> deferred_acks;
  };

  struct GroupState {
    MirroredMemory* mem = nullptr;
    /// Cells this node ever wrote (snapshot domain on reconnect).
    std::vector<bool> dirty;
  };

  static constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

  void open_listener();
  void on_accept();
  void on_inbound_io(int fd, std::uint32_t events);
  void on_peer_io(RegisterPeer& p, std::uint32_t events);
  void handle_inbound_frame(Inbound& c, const Request& f);
  void handle_peer_frame(RegisterPeer& p, const Response& f);
  /// Dials a peer (non-blocking connect); loop thread.
  void dial(RegisterPeer& p);
  void on_timer();
  /// Drops the outbound stream; it will redial on the next timer tick.
  void disconnect_peer(RegisterPeer& p);
  void close_inbound(int fd);
  /// Drains every peer's pending queue into push frames and flushes.
  void flush_peers();
  /// Seeds `p.pending` with a full snapshot of every registered group
  /// (call with pending_mu_ held).
  void snapshot_into(std::vector<PendingWrite>& out);
  /// Writes as much buffered output as the socket takes. False = died.
  bool flush_out(int fd, std::vector<std::uint8_t>& out, std::size_t& pos,
                 bool& want_write);
  /// Emits one cumulative ack for every deferred frame now covered by
  /// durable_wal_ (loop thread). False = the connection died writing.
  bool drain_deferred_acks(Inbound& c);
  std::int64_t now_ns() const;
  /// Connected, and not stalled on acks at `now` (see ack_stall_us).
  bool live(const RegisterPeer& p, std::int64_t now) const;

  MirrorConfig cfg_;
  EventLoop loop_;
  std::thread thread_;
  int listen_fd_ = -1;
  int timer_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopped_{false};

  /// Group registry (workers + loop thread).
  mutable std::mutex groups_mu_;
  std::unordered_map<svc::GroupId, GroupState> groups_;

  /// Pending write queues, one per peer, appended by worker threads.
  mutable std::mutex pending_mu_;
  std::vector<std::vector<PendingWrite>> pending_;  ///< index = peer index
  bool flush_scheduled_ = false;
  /// Write watermark: bumped (under pending_mu_) once per local write, so
  /// capturing it at drain-swap time names exactly the writes the swapped
  /// batch (plus everything already sent) covers.
  std::atomic<std::uint64_t> write_seq_{0};

  /// Inbound durability (loop thread, except the setter).
  InboundJournal inbound_journal_;
  std::function<void()> ack_listener_;  ///< set before start()
  std::uint64_t durable_wal_ = 0;  ///< newest released WAL seq (loop thread)

  std::vector<std::unique_ptr<RegisterPeer>> peers_;
  std::unordered_map<int, std::unique_ptr<Inbound>> inbound_;

  /// Ack RTT ring (loop thread writes, stats readers copy under mutex).
  mutable std::mutex lag_mu_;
  std::vector<std::int64_t> lag_ring_;
  std::size_t lag_next_ = 0;

  /// mirror.push_lag_ns (resolved once; the ack path records lock-free).
  obs::Histogram* push_lag_hist_ = nullptr;
  /// Registered mirror.* gauge ids, unregistered in stop().
  std::vector<std::uint64_t> gauge_ids_;

  struct Counters {
    std::atomic<std::uint64_t> pushed_frames{0};
    std::atomic<std::uint64_t> pushed_cells{0};
    std::atomic<std::uint64_t> acked_frames{0};
    std::atomic<std::uint64_t> applied_frames{0};
    std::atomic<std::uint64_t> applied_cells{0};
    std::atomic<std::uint64_t> coalesced{0};
    std::atomic<std::uint64_t> reconnects{0};
    std::atomic<std::uint64_t> snapshots{0};
    std::atomic<std::uint64_t> resyncs{0};
  } counters_;
};

}  // namespace omega::net
