#include "net/register_peer.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/check.h"
#include "obs/flight_recorder.h"

namespace omega::net {

namespace {

constexpr std::size_t kLagRingSize = 8192;
/// Unacked pushes tracked for lag sampling; beyond it the oldest sample
/// is dropped (measurement only, never correctness).
constexpr std::size_t kMaxSentTimes = 65536;
/// One in N pushed frames is time-stamped for the lag measurement.
constexpr std::uint64_t kLagSampleEvery = 16;

/// Reads a non-blocking socket dry into `in`; false once the peer closed
/// or the read failed.
bool read_available(int fd, FrameDecoder& in) {
  std::uint8_t buf[16384];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      in.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

void set_tcp_nodelay(int fd) {
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

MirrorTransport::MirrorTransport(MirrorConfig cfg) : cfg_(std::move(cfg)) {
  OMEGA_CHECK(cfg_.reconnect_ms >= 1, "reconnect cadence must be >= 1ms");
  for (const auto& p : cfg_.peers) {
    OMEGA_CHECK(p.node != cfg_.node,
                "peer list names this node (" << cfg_.node << ")");
    auto peer = std::make_unique<RegisterPeer>();
    peer->cfg = p;
    peers_.push_back(std::move(peer));
  }
  pending_.resize(peers_.size());
  lag_ring_.reserve(kLagRingSize);
  push_lag_hist_ = &obs::histogram("mirror.push_lag_ns");
  obs::Registry& reg = obs::Registry::instance();
  gauge_ids_.push_back(reg.register_gauge("mirror.pushed_frames", [this] {
    return static_cast<std::int64_t>(
        counters_.pushed_frames.load(std::memory_order_relaxed));
  }));
  gauge_ids_.push_back(reg.register_gauge("mirror.acked_frames", [this] {
    return static_cast<std::int64_t>(
        counters_.acked_frames.load(std::memory_order_relaxed));
  }));
  gauge_ids_.push_back(reg.register_gauge("mirror.reconnects", [this] {
    return static_cast<std::int64_t>(
        counters_.reconnects.load(std::memory_order_relaxed));
  }));
  gauge_ids_.push_back(reg.register_gauge("mirror.resyncs", [this] {
    return static_cast<std::int64_t>(
        counters_.resyncs.load(std::memory_order_relaxed));
  }));
  gauge_ids_.push_back(reg.register_gauge("mirror.max_unacked", [this] {
    return static_cast<std::int64_t>(max_unacked_frames());
  }));
  open_listener();
}

MirrorTransport::~MirrorTransport() { stop(); }

void MirrorTransport::open_listener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  OMEGA_CHECK(listen_fd_ >= 0, "socket: errno " << errno);
  int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  OMEGA_CHECK(inet_pton(AF_INET, cfg_.bind_address.c_str(),
                        &addr.sin_addr) == 1,
              "bad bind address " << cfg_.bind_address);
  OMEGA_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr) == 0,
              "bind " << cfg_.bind_address << ":" << cfg_.port << ": errno "
                      << errno);
  OMEGA_CHECK(::listen(listen_fd_, 64) == 0, "listen: errno " << errno);
  socklen_t len = sizeof addr;
  OMEGA_CHECK(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0,
              "getsockname: errno " << errno);
  port_ = ntohs(addr.sin_port);
}

void MirrorTransport::add_group(svc::GroupId gid, MirroredMemory* mem) {
  OMEGA_CHECK(mem != nullptr, "null mirror for group " << gid);
  {
    std::lock_guard<std::mutex> lock(groups_mu_);
    auto [it, inserted] = groups_.emplace(gid, GroupState{});
    OMEGA_CHECK(inserted, "duplicate mirror group " << gid);
    it->second.mem = mem;
    it->second.dirty.assign(mem->layout().size(), false);
  }
  if (started_ && !stopped_.load(std::memory_order_acquire)) {
    // A group added mid-flight missed every stream's history. Cut all
    // streams: peers redial us (and we them), and both directions resync
    // by snapshot — the one mechanism that always converges.
    loop_.post([this] {
      std::vector<int> fds;
      fds.reserve(inbound_.size());
      for (const auto& [fd, c] : inbound_) fds.push_back(fd);
      for (int fd : fds) close_inbound(fd);
      for (auto& p : peers_) {
        if (p->fd >= 0) disconnect_peer(*p);
      }
    });
  }
}

void MirrorTransport::remove_group(svc::GroupId gid) {
  std::lock_guard<std::mutex> lock(groups_mu_);
  groups_.erase(gid);
}

void MirrorTransport::force_resync() {
  if (!started_ || stopped_.load(std::memory_order_acquire)) return;
  loop_.post([this] {
    if (stopped_.load(std::memory_order_acquire)) return;
    std::vector<int> fds;
    fds.reserve(inbound_.size());
    for (const auto& [fd, c] : inbound_) fds.push_back(fd);
    for (const int fd : fds) close_inbound(fd);
    for (auto& p : peers_) {
      if (p->fd >= 0) disconnect_peer(*p);
    }
    counters_.resyncs.fetch_add(1, std::memory_order_relaxed);
    obs::trace(obs::TraceEvent::kMirrorResync, cfg_.node, 0);
  });
}

void MirrorTransport::start() {
  OMEGA_CHECK(!started_, "start() called twice");
  started_ = true;
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  OMEGA_CHECK(timer_fd_ >= 0, "timerfd_create: errno " << errno);
  itimerspec spec{};
  spec.it_interval.tv_sec = cfg_.reconnect_ms / 1000;
  spec.it_interval.tv_nsec = (cfg_.reconnect_ms % 1000) * 1000000L;
  spec.it_value = spec.it_interval;
  OMEGA_CHECK(::timerfd_settime(timer_fd_, 0, &spec, nullptr) == 0,
              "timerfd_settime: errno " << errno);
  thread_ = std::thread([this] { loop_.run(); });
  loop_.post([this] {
    loop_.add_fd(listen_fd_, EPOLLIN, [this](std::uint32_t) { on_accept(); });
    loop_.add_fd(timer_fd_, EPOLLIN, [this](std::uint32_t) {
      std::uint64_t ticks = 0;
      while (::read(timer_fd_, &ticks, sizeof ticks) > 0) {
      }
      on_timer();
    });
    on_timer();  // first dial round without waiting a tick
  });
}

void MirrorTransport::stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  for (const std::uint64_t id : gauge_ids_) {
    obs::Registry::instance().unregister_gauge(id);
  }
  gauge_ids_.clear();
  // A transport that never start()ed still owns the listener (bound in
  // the constructor): fall through to the fd cleanup either way.
  if (started_) {
    loop_.stop();
    if (thread_.joinable()) thread_.join();
    loop_.drain_pending();
  }
  for (auto& p : peers_) {
    if (p->fd >= 0) {
      ::close(p->fd);
      p->fd = -1;
    }
    p->connected.store(false, std::memory_order_release);
  }
  for (auto& [fd, c] : inbound_) {
    (void)c;
    ::close(fd);
  }
  inbound_.clear();
  if (timer_fd_ >= 0) {
    ::close(timer_fd_);
    timer_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::int64_t MirrorTransport::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- write path (worker threads) -------------------------------------------

void MirrorTransport::on_local_write(svc::GroupId gid, Cell c,
                                     std::uint64_t v) {
  if (peers_.empty()) return;
  // Mark the snapshot-domain bit first, outside pending_mu_: either the
  // write's queue entry survives a concurrent snapshot reset (pushed
  // normally) or it was dropped — and then the store already happened
  // before the snapshot's peek, so the value rides the snapshot. Keeping
  // the two locks un-nested keeps workers and the IO thread from
  // funneling through one lock pair on the heartbeat-write hot path.
  {
    std::lock_guard<std::mutex> glock(groups_mu_);
    const auto it = groups_.find(gid);
    if (it != groups_.end() && c.index < it->second.dirty.size()) {
      it->second.dirty[c.index] = true;
    }
  }
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    write_seq_.fetch_add(1, std::memory_order_release);
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      if (!peers_[i]->connected.load(std::memory_order_acquire)) continue;
      auto& q = pending_[i];
      // Adjacent dedup: a re-write of the cell at the queue's tail cannot
      // reorder across any other cell — the only coalescing that keeps
      // the stream order-equivalent to the owners' write order.
      if (!q.empty() && q.back().gid == gid && q.back().cell == c.index) {
        q.back().value = v;
        counters_.coalesced.fetch_add(1, std::memory_order_relaxed);
      } else {
        q.push_back(PendingWrite{gid, c.index, v});
      }
    }
    if (!flush_scheduled_) {
      flush_scheduled_ = true;
      schedule = true;
    }
  }
  if (schedule) {
    loop_.post([this] {
      {
        std::lock_guard<std::mutex> lock(pending_mu_);
        flush_scheduled_ = false;
      }
      if (!stopped_.load(std::memory_order_acquire)) flush_peers();
    });
  }
}

void MirrorTransport::snapshot_into(std::vector<PendingWrite>& out) {
  std::lock_guard<std::mutex> glock(groups_mu_);
  for (const auto& [gid, gs] : groups_) {
    for (std::uint32_t i = 0; i < gs.dirty.size(); ++i) {
      if (!gs.dirty[i]) continue;
      out.push_back(PendingWrite{gid, i, gs.mem->peek(Cell{i})});
    }
  }
}

// --- outbound streams (loop thread) ----------------------------------------

void MirrorTransport::on_timer() {
  for (auto& p : peers_) {
    if (p->fd < 0) dial(*p);
  }
  flush_peers();
}

void MirrorTransport::dial(RegisterPeer& p) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) return;  // fd pressure; retry next tick
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(p.cfg.port);
  if (inet_pton(AF_INET, p.cfg.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return;
  }
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return;  // refused; retry next tick
  }
  set_tcp_nodelay(fd);
  p.fd = fd;
  p.hello_sent = false;
  if (p.ever_connected) {
    counters_.reconnects.fetch_add(1, std::memory_order_relaxed);
  }
  loop_.add_fd(fd, EPOLLIN | EPOLLOUT,
               [this, peer = &p](std::uint32_t events) {
                 on_peer_io(*peer, events);
               });
}

void MirrorTransport::disconnect_peer(RegisterPeer& p) {
  if (p.fd < 0) return;
  loop_.remove_fd(p.fd);
  ::close(p.fd);
  p.fd = -1;
  p.connected.store(false, std::memory_order_release);
  p.backlog.store(0, std::memory_order_relaxed);
  p.hello_sent = false;
  p.in = FrameDecoder{};
  p.out.clear();
  p.out_pos = 0;
  p.want_write = false;
  p.sent_seq = 0;
  p.acked_seq = 0;
  p.sent_times.clear();
  p.cover_marks.clear();  // acked_wseq survives: acked writes stay applied
  std::lock_guard<std::mutex> lock(pending_mu_);
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i].get() == &p) {
      pending_[i].clear();
      break;
    }
  }
}

void MirrorTransport::on_peer_io(RegisterPeer& p, std::uint32_t events) {
  if (p.fd < 0) return;
  if (!p.hello_sent) {
    // First writability: the non-blocking connect resolved.
    int err = 0;
    socklen_t len = sizeof err;
    if (getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      disconnect_peer(p);
      return;
    }
    encode_fixed(p.out, MsgType::kRegHello, Status::kOk, /*req_id=*/1,
                 RegHelloBody{cfg_.node});
    p.hello_sent = true;
    p.ever_connected = true;
    // Seed the stream with a snapshot, then let live writes flow. The
    // connected flag flips first so racing writers either land in the
    // queue behind the snapshot or are already covered by it (their
    // store precedes our peek).
    p.last_ack_ns.store(now_ns(), std::memory_order_relaxed);
    p.connected.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      for (std::size_t i = 0; i < peers_.size(); ++i) {
        if (peers_[i].get() != &p) continue;
        pending_[i].clear();
        snapshot_into(pending_[i]);
        break;
      }
    }
    counters_.snapshots.fetch_add(1, std::memory_order_relaxed);
    flush_peers();
  }
  if (events & (EPOLLHUP | EPOLLERR)) {
    disconnect_peer(p);
    return;
  }
  if (events & EPOLLIN) {
    if (!read_available(p.fd, p.in)) {
      disconnect_peer(p);
      return;
    }
    const std::uint8_t* payload = nullptr;
    std::size_t len = 0;
    Response f;
    while (p.in.next(payload, len)) {
      if (decode_response(payload, len, f) != DecodeResult::kOk) {
        disconnect_peer(p);
        return;
      }
      handle_peer_frame(p, f);
    }
    if (p.in.corrupt()) {
      disconnect_peer(p);
      return;
    }
  }
  if (events & EPOLLOUT) {
    if (!flush_out(p.fd, p.out, p.out_pos, p.want_write)) {
      disconnect_peer(p);
      return;
    }
  }
}

void MirrorTransport::handle_peer_frame(RegisterPeer& p, const Response& f) {
  switch (f.header.type) {
    case MsgType::kRegAck: {
      const std::uint64_t seq = std::get<RegAckBody>(f.body).seq;
      if (seq <= p.acked_seq || seq > p.sent_seq) return;  // stale/garbled
      p.acked_seq = seq;
      p.backlog.store(p.sent_seq - p.acked_seq, std::memory_order_relaxed);
      p.last_ack_ns.store(now_ns(), std::memory_order_relaxed);
      counters_.acked_frames.fetch_add(1, std::memory_order_relaxed);
      std::size_t covered_marks = 0;
      std::uint64_t wseq = 0;
      while (covered_marks < p.cover_marks.size() &&
             p.cover_marks[covered_marks].first <= seq) {
        wseq = std::max(wseq, p.cover_marks[covered_marks].second);
        ++covered_marks;
      }
      if (covered_marks > 0) {
        p.cover_marks.erase(p.cover_marks.begin(),
                            p.cover_marks.begin() +
                                static_cast<std::ptrdiff_t>(covered_marks));
        if (wseq > p.acked_wseq.load(std::memory_order_relaxed)) {
          p.acked_wseq.store(wseq, std::memory_order_release);
          if (ack_listener_) ack_listener_();
        }
      }
      const std::int64_t now = now_ns();
      std::size_t drop = 0;
      std::int64_t last_lag = -1;
      while (drop < p.sent_times.size() && p.sent_times[drop].first <= seq) {
        last_lag = now - p.sent_times[drop].second;
        ++drop;
      }
      if (drop > 0) {
        p.sent_times.erase(p.sent_times.begin(),
                           p.sent_times.begin() +
                               static_cast<std::ptrdiff_t>(drop));
      }
      if (last_lag >= 0) {
        push_lag_hist_->record(static_cast<std::uint64_t>(last_lag));
        obs::trace(obs::TraceEvent::kMirrorAck, p.cfg.node, seq);
        std::lock_guard<std::mutex> lock(lag_mu_);
        if (lag_ring_.size() < kLagRingSize) {
          lag_ring_.push_back(last_lag);
        } else {
          lag_ring_[lag_next_] = last_lag;
          lag_next_ = (lag_next_ + 1) % kLagRingSize;
        }
      }
      return;
    }
    case MsgType::kRegHello:
      return;  // the peer's hello response; nothing to do
    default:
      return;  // nothing else rides a mirror stream
  }
}

void MirrorTransport::flush_peers() {
  if (stopped_.load(std::memory_order_acquire)) return;
  std::vector<PendingWrite> batch;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    RegisterPeer& p = *peers_[i];
    if (p.fd < 0 || !p.hello_sent) continue;
    batch.clear();
    std::uint64_t covered = 0;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      batch.swap(pending_[i]);
      // Every local write numbered <= this watermark is either in `batch`
      // or was drained to this peer earlier (writes enqueue under the same
      // lock that bumps the watermark; a disconnected gap is covered by
      // the reconnect snapshot, whose entries are also in the queue).
      covered = write_seq_.load(std::memory_order_relaxed);
    }
    std::size_t at = 0;
    std::vector<RegCellUpdate> cells;
    while (at < batch.size()) {
      // One frame: a run of updates of the same group, up to the cap.
      const svc::GroupId gid = batch[at].gid;
      cells.clear();
      while (at < batch.size() && batch[at].gid == gid &&
             cells.size() < kMaxPushCells) {
        cells.push_back(RegCellUpdate{batch[at].cell, batch[at].value});
        ++at;
      }
      ++p.sent_seq;
      encode_reg_push(p.out, gid, p.sent_seq, cells.data(),
                      static_cast<std::uint32_t>(cells.size()));
      if ((p.sent_seq == 1 || p.sent_seq % kLagSampleEvery == 0) &&
          p.sent_times.size() < kMaxSentTimes) {
        p.sent_times.emplace_back(p.sent_seq, now_ns());
        obs::trace(obs::TraceEvent::kMirrorPush, gid, p.sent_seq);
      }
      counters_.pushed_frames.fetch_add(1, std::memory_order_relaxed);
      counters_.pushed_cells.fetch_add(cells.size(),
                                       std::memory_order_relaxed);
    }
    if (!batch.empty()) {
      // Ack of the batch's last frame certifies coverage of `covered`.
      p.cover_marks.emplace_back(p.sent_seq, covered);
    }
    p.backlog.store(p.sent_seq - p.acked_seq, std::memory_order_relaxed);
    if (p.out.size() - p.out_pos > cfg_.max_outbuf_bytes) {
      // Slow peer: cut it; reconnect resyncs by snapshot.
      disconnect_peer(p);
      continue;
    }
    if (!flush_out(p.fd, p.out, p.out_pos, p.want_write)) {
      disconnect_peer(p);
    }
  }
}

// --- inbound streams (loop thread) -----------------------------------------

void MirrorTransport::on_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    set_tcp_nodelay(fd);
    auto c = std::make_unique<Inbound>();
    c->fd = fd;
    inbound_.emplace(fd, std::move(c));
    loop_.add_fd(fd, EPOLLIN, [this, fd](std::uint32_t events) {
      on_inbound_io(fd, events);
    });
  }
}

void MirrorTransport::close_inbound(int fd) {
  const auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  loop_.remove_fd(fd);
  ::close(fd);
  inbound_.erase(it);
}

void MirrorTransport::on_inbound_io(int fd, std::uint32_t events) {
  const auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  Inbound& c = *it->second;
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_inbound(fd);
    return;
  }
  if (events & EPOLLIN) {
    if (!read_available(fd, c.in)) {
      close_inbound(fd);
      return;
    }
    const std::uint8_t* payload = nullptr;
    std::size_t len = 0;
    Request f;
    while (c.in.next(payload, len)) {
      if (decode_request(payload, len, f) != DecodeResult::kOk) {
        close_inbound(fd);
        return;
      }
      handle_inbound_frame(c, f);
      if (inbound_.find(fd) == inbound_.end()) return;  // closed inside
    }
    if (c.in.corrupt()) {
      close_inbound(fd);
      return;
    }
  }
  if (events & EPOLLOUT) {
    if (!flush_out(c.fd, c.out, c.out_pos, c.want_write)) {
      close_inbound(fd);
      return;
    }
  }
}

void MirrorTransport::handle_inbound_frame(Inbound& c, const Request& f) {
  switch (f.header.type) {
    case MsgType::kRegHello: {
      c.node = std::get<RegHelloBody>(f.body).node;
      encode_fixed(c.out, MsgType::kRegHello, Status::kOk, f.header.req_id,
                   RegHelloBody{cfg_.node});
      break;
    }
    case MsgType::kRegPush: {
      const RegPushBody& push = std::get<RegPushBody>(f.body);
      std::uint64_t wal_gate = 0;
      {
        std::lock_guard<std::mutex> lock(groups_mu_);
        const auto it = groups_.find(push.gid);
        if (it != groups_.end()) {
          MirroredMemory& mem = *it->second.mem;
          // In frame order, which is the sender's write order: this is
          // the FIFO application the mirror's regularity argument needs.
          for (const auto& u : push.cells) {
            mem.apply_push(Cell{u.cell}, u.value);
            if (inbound_journal_) {
              // Journal the pushed cell to the local WAL (the closure
              // filters out cells below the durable floor; record seqs
              // are monotone, so the last nonzero one gates the ack).
              const std::uint64_t rec =
                  inbound_journal_(push.gid, u.cell, u.value);
              if (rec != 0) wal_gate = rec;
            }
          }
          counters_.applied_cells.fetch_add(push.cells.size(),
                                            std::memory_order_relaxed);
        }
        // Unknown gid: the group is not registered here (yet); the
        // stream stays FIFO, the frame is acked — registration cuts
        // streams and resyncs, so nothing is silently lost.
      }
      counters_.applied_frames.fetch_add(1, std::memory_order_relaxed);
      if (wal_gate != 0 || !c.deferred_acks.empty()) {
        // Hold the ack until the WAL covers this frame's records. A frame
        // that journaled nothing still queues behind earlier gated frames
        // (inheriting their gate), keeping the ack stream cumulative.
        if (wal_gate == 0) wal_gate = c.deferred_acks.back().second;
        c.deferred_acks.emplace_back(push.seq, wal_gate);
        if (!drain_deferred_acks(c)) {
          close_inbound(c.fd);
          return;
        }
        break;
      }
      encode_fixed(c.out, MsgType::kRegAck, Status::kOk, /*req_id=*/0,
                   RegAckBody{push.seq});
      break;
    }
    default:
      break;  // ignore anything else on a mirror stream
  }
  if (!flush_out(c.fd, c.out, c.out_pos, c.want_write)) {
    close_inbound(c.fd);
  }
}

// --- inbound durability (quorum_ack) ---------------------------------------

void MirrorTransport::set_ack_listener(std::function<void()> listener) {
  OMEGA_CHECK(!started_, "install the ack listener before start()");
  ack_listener_ = std::move(listener);
}

void MirrorTransport::set_inbound_journal(InboundJournal journal) {
  OMEGA_CHECK(!started_, "install the inbound journal before start()");
  inbound_journal_ = std::move(journal);
}

bool MirrorTransport::drain_deferred_acks(Inbound& c) {
  std::uint64_t ack = 0;
  while (!c.deferred_acks.empty() &&
         c.deferred_acks.front().second <= durable_wal_) {
    ack = c.deferred_acks.front().first;
    c.deferred_acks.pop_front();
  }
  if (ack == 0) return true;
  // One cumulative ack for the whole released run.
  encode_fixed(c.out, MsgType::kRegAck, Status::kOk, /*req_id=*/0,
               RegAckBody{ack});
  return flush_out(c.fd, c.out, c.out_pos, c.want_write);
}

void MirrorTransport::release_durable_acks(std::uint64_t durable_seq) {
  if (!started_ || stopped_.load(std::memory_order_acquire)) return;
  loop_.post([this, durable_seq] {
    if (stopped_.load(std::memory_order_acquire)) return;
    durable_wal_ = std::max(durable_wal_, durable_seq);
    std::vector<int> fds;
    fds.reserve(inbound_.size());
    for (const auto& [fd, c] : inbound_) fds.push_back(fd);
    for (const int fd : fds) {
      const auto it = inbound_.find(fd);
      if (it == inbound_.end()) continue;
      if (!drain_deferred_acks(*it->second)) close_inbound(fd);
    }
  });
}

// --- shared ---------------------------------------------------------------

bool MirrorTransport::flush_out(int fd, std::vector<std::uint8_t>& out,
                                std::size_t& pos, bool& want_write) {
  while (pos < out.size()) {
    const ssize_t n = ::send(fd, out.data() + pos, out.size() - pos,
                             MSG_NOSIGNAL);
    if (n > 0) {
      pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!want_write) {
        want_write = true;
        loop_.mod_fd(fd, EPOLLIN | EPOLLOUT);
      }
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  out.clear();
  pos = 0;
  if (want_write) {
    want_write = false;
    loop_.mod_fd(fd, EPOLLIN);
  }
  return true;
}

// --- observation -----------------------------------------------------------

bool MirrorTransport::live(const RegisterPeer& p, std::int64_t now) const {
  if (!p.connected.load(std::memory_order_acquire)) return false;
  // A peer whose acks have stalled outright is dead for the sealing bound
  // even though its TCP stream looks alive (a frozen process keeps its
  // sockets): waiting for it would stall every append until the kernel
  // buffers finally burst max_outbuf_bytes.
  return cfg_.ack_stall_us <= 0 ||
         p.backlog.load(std::memory_order_relaxed) == 0 ||
         now - p.last_ack_ns.load(std::memory_order_relaxed) <=
             cfg_.ack_stall_us * 1000;
}

bool MirrorTransport::peer_live(std::uint32_t node) const {
  for (const auto& p : peers_) {
    if (p->cfg.node == node) return live(*p, now_ns());
  }
  return false;
}

std::uint64_t MirrorTransport::max_unacked_frames() const {
  std::uint64_t deepest = 0;
  const std::int64_t now = now_ns();
  for (const auto& p : peers_) {
    if (!live(*p, now)) continue;
    deepest = std::max(deepest, p->backlog.load(std::memory_order_relaxed));
  }
  return deepest;
}

void MirrorTransport::acked_marks(
    std::vector<std::pair<std::uint32_t, std::uint64_t>>& out) const {
  out.clear();
  out.reserve(peers_.size());
  for (const auto& p : peers_) {
    out.emplace_back(p->cfg.node,
                     p->acked_wseq.load(std::memory_order_acquire));
  }
}

std::uint64_t MirrorTransport::connected_peers() const {
  std::uint64_t n = 0;
  for (const auto& p : peers_) {
    if (p->connected.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

MirrorStats MirrorTransport::stats() const {
  MirrorStats s;
  s.pushed_frames = counters_.pushed_frames.load(std::memory_order_relaxed);
  s.pushed_cells = counters_.pushed_cells.load(std::memory_order_relaxed);
  s.acked_frames = counters_.acked_frames.load(std::memory_order_relaxed);
  s.applied_frames = counters_.applied_frames.load(std::memory_order_relaxed);
  s.applied_cells = counters_.applied_cells.load(std::memory_order_relaxed);
  s.coalesced = counters_.coalesced.load(std::memory_order_relaxed);
  s.reconnects = counters_.reconnects.load(std::memory_order_relaxed);
  s.snapshots = counters_.snapshots.load(std::memory_order_relaxed);
  s.resyncs = counters_.resyncs.load(std::memory_order_relaxed);
  s.connected_peers = connected_peers();
  s.max_unacked = max_unacked_frames();
  return s;
}

void MirrorTransport::lag_samples(std::vector<std::int64_t>& out) const {
  std::lock_guard<std::mutex> lock(lag_mu_);
  out.assign(lag_ring_.begin(), lag_ring_.end());
}

}  // namespace omega::net
