#include "net/leader_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "common/check.h"
#include "obs/flight_recorder.h"
#include "obs/process_gauges.h"
#include "smr/log_group.h"
#include "svc/worker_pool.h"

namespace omega::net {

namespace {

void set_tcp_nodelay(int fd) {
  int one = 1;
  // Best effort: latency tuning, not correctness.
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Metric-name suffix per wire type byte (index 0 = unknown fallback).
const char* frame_metric_name(std::size_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kLeader: return "net.frames.leader";
    case MsgType::kWatch: return "net.frames.watch";
    case MsgType::kUnwatch: return "net.frames.unwatch";
    case MsgType::kPing: return "net.frames.ping";
    case MsgType::kEvent: return "net.frames.event";
    case MsgType::kAppend: return "net.frames.append";
    case MsgType::kReadLog: return "net.frames.read_log";
    case MsgType::kCommitWatch: return "net.frames.commit_watch";
    case MsgType::kCommitUnwatch: return "net.frames.commit_unwatch";
    case MsgType::kCommitEvent: return "net.frames.commit_event";
    case MsgType::kRegHello: return "net.frames.reg_hello";
    case MsgType::kRegPush: return "net.frames.reg_push";
    case MsgType::kRegAck: return "net.frames.reg_ack";
    case MsgType::kSessionOpen: return "net.frames.session_open";
    case MsgType::kMetrics: return "net.frames.metrics";
    case MsgType::kTraceDump: return "net.frames.trace_dump";
    case MsgType::kHealth: return "net.frames.health";
    case MsgType::kMetricsWatch: return "net.frames.metrics_watch";
    case MsgType::kMetricsEvent: return "net.frames.metrics_event";
    case MsgType::kRead: return "net.frames.read";
    default: return "net.frames.other";
  }
}

/// The wire status an append completion answers with.
Status append_status(smr::AppendOutcome outcome) {
  switch (outcome) {
    case smr::AppendOutcome::kCommitted: return Status::kOk;
    case smr::AppendOutcome::kStaleSeq: return Status::kStaleSeq;
    case smr::AppendOutcome::kLogFull: return Status::kLogFull;
    case smr::AppendOutcome::kBadCommand: return Status::kBadRequest;
    case smr::AppendOutcome::kSessionEvicted: return Status::kSessionEvicted;
    // The log went away under us.
    case smr::AppendOutcome::kAborted: return Status::kUnknownGroup;
    // Accepted while this node led, never sealed here: the leader hint
    // names the node to retry against.
    case smr::AppendOutcome::kNotLeader: return Status::kNotLeader;
    // Completions never fire with kAccepted; like a full queue, it asks
    // the client to retry.
    case smr::AppendOutcome::kAccepted:
    case smr::AppendOutcome::kQueueFull: return Status::kOverloaded;
  }
  return Status::kOverloaded;
}

/// End of the page of `samples` starting at `start` that fits the payload
/// cap behind `fixed_bytes` of header and fixed body.
std::size_t metrics_page_end(const std::vector<obs::MetricSample>& samples,
                             std::size_t start, std::size_t fixed_bytes) {
  std::size_t end = start;
  for (std::size_t bytes = fixed_bytes; end < samples.size(); ++end) {
    bytes += metrics_record_wire_size(samples[end]);
    if (bytes > kMaxPayloadBytes) break;
  }
  return end;
}

/// Process-level health rules owned by the net layer: descriptor and
/// memory growth. Both gate on the ring actually covering the window —
/// a fresh sampler must not alarm on its first few points.
void register_net_health_rules(obs::HealthMonitor& hm) {
  constexpr std::int64_t kWindowMs = 30'000;
  hm.add_rule(obs::HealthRule{
      "net-fd-growth",
      [](const obs::TimeSeries& ts, std::string* reason) {
        if (ts.span_ms("proc.open_fds") < kWindowMs) return obs::Health::kOk;
        const std::int64_t d = ts.delta("proc.open_fds", kWindowMs);
        if (d <= 512) return obs::Health::kOk;
        *reason = "+" + std::to_string(d) + " fds in 30s (now " +
                  std::to_string(ts.latest_value("proc.open_fds")) + ")";
        return obs::Health::kDegraded;
      },
      /*degrade_after=*/2,
      /*recover_after=*/4});
  hm.add_rule(obs::HealthRule{
      "net-rss-growth",
      [](const obs::TimeSeries& ts, std::string* reason) {
        if (ts.span_ms("proc.rss_bytes") < kWindowMs) return obs::Health::kOk;
        const std::int64_t d = ts.delta("proc.rss_bytes", kWindowMs);
        if (d <= (std::int64_t{256} << 20)) return obs::Health::kOk;
        *reason = "rss grew " + std::to_string(d >> 20) + " MiB in 30s";
        return obs::Health::kDegraded;
      },
      /*degrade_after=*/2,
      /*recover_after=*/4});
}

}  // namespace

LeaderServer::LeaderServer(svc::MultiGroupLeaderService& service,
                           NetConfig cfg)
    : service_(service), cfg_(std::move(cfg)) {
  OMEGA_CHECK(cfg_.io_threads >= 1 && cfg_.io_threads <= 64,
              "io_threads must be in [1, 64], got " << cfg_.io_threads);
  loops_.reserve(cfg_.io_threads);
  for (std::uint32_t i = 0; i < cfg_.io_threads; ++i) {
    loops_.push_back(std::make_unique<Loop>());
  }
  std::vector<EventLoop*> raw;
  raw.reserve(loops_.size());
  for (auto& l : loops_) raw.push_back(&l->loop);
  hub_ = std::make_unique<WatchHub>(
      std::move(raw),
      [this](std::uint32_t loop, svc::GroupId gid, svc::LeaderView view) {
        deliver_event(loop, gid, view);
      },
      [this](std::uint32_t loop, svc::GroupId gid, std::uint64_t first_index,
             const std::vector<std::uint64_t>& values,
             const std::vector<std::uint64_t>& traces) {
        deliver_commit_batch(loop, gid, first_index, values, traces);
      },
      [this](std::uint32_t loop,
             std::shared_ptr<const std::vector<std::uint8_t>> bytes) {
        deliver_metrics(loop, std::move(bytes));
      });
  append_sink_ = std::make_shared<AppendSink>();
  append_sink_->server = this;
  for (std::size_t t = 0; t < kFrameCounterSlots; ++t) {
    frame_counters_[t] = &obs::counter(frame_metric_name(t));
  }
  ack_flush_hist_ = &obs::histogram("net.ack_flush_ns");
  obs::register_process_gauges();
  if (cfg_.sample_period_ms > 0) {
    obs::SamplerConfig scfg;
    scfg.period_ms = cfg_.sample_period_ms;
    sampler_ = std::make_unique<obs::Sampler>(scfg);
    // Every hosted layer contributes its rules up front; rules over
    // metrics a deployment never emits stay kOk (absent series read as
    // zero), so registering unconditionally is harmless.
    register_net_health_rules(sampler_->health());
    svc::register_health_rules(sampler_->health());
    smr::register_health_rules(sampler_->health());
    // Tick fan-out: encode the scrape ONCE into METRICS_EVENT pages and
    // hand the shared buffer to the hub, which posts it to every loop
    // with a subscriber. Runs on the sampler thread; skipped entirely
    // while nobody watches.
    sampler_->set_tick_listener(
        [this](std::uint64_t tick_no,
               const std::vector<obs::MetricSample>& scrape,
               const obs::HealthReport& report) {
          if (!hub_->has_metrics_watchers()) return;
          auto frames = std::make_shared<std::vector<std::uint8_t>>();
          MetricsEventBody page;
          page.tick = tick_no;
          page.health = static_cast<std::uint8_t>(report.overall);
          page.total = static_cast<std::uint32_t>(scrape.size());
          // At least one page, even metric-less: it carries the tick
          // number and health byte — a heartbeat when the registry is
          // empty.
          std::size_t start = 0;
          do {
            const std::size_t end =
                metrics_page_end(scrape, start, kHeaderBytes + 21);
            page.start = static_cast<std::uint32_t>(start);
            page.metrics.assign(scrape.begin() + start, scrape.begin() + end);
            encode_metrics_event(*frames, page);
            start = end;
          } while (start < scrape.size());
          hub_->publish_metrics(std::move(frames));
        });
  }
  open_listener();
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

void LeaderServer::serve_log(smr::SmrService& smr) {
  OMEGA_CHECK(!started_, "serve_log() after start()");
  smr_ = &smr;
}

LeaderServer::~LeaderServer() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
}

void LeaderServer::open_listener() {
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
  OMEGA_CHECK(::listen(listen_fd_, 256) == 0, "listen: errno " << errno);
  socklen_t len = sizeof addr;
  OMEGA_CHECK(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0,
              "getsockname: errno " << errno);
  port_ = ntohs(addr.sin_port);
}

void LeaderServer::start() {
  OMEGA_CHECK(!started_, "start() called twice");
  started_ = true;
  for (std::uint32_t i = 0; i < cfg_.io_threads; ++i) {
    Loop* l = loops_[i].get();
    l->thread = std::thread([l] { l->loop.run(); });
  }
  // The acceptor lives on loop 0. Registered via post() so the add_fd
  // happens on the loop thread (EventLoop registration is loop-confined).
  loops_[0]->loop.post([this] {
    loops_[0]->loop.add_fd(listen_fd_, EPOLLIN,
                           [this](std::uint32_t) { on_accept(); });
  });
  service_.set_epoch_listener(
      [this](svc::GroupId gid, const svc::LeaderView& view) {
        hub_->publish(gid, view);
      });
  if (smr_ != nullptr) {
    smr_->set_commit_listener(
        [this](svc::GroupId gid, std::uint64_t first_index,
               const std::vector<std::uint64_t>& values,
               const std::vector<std::uint64_t>& traces) {
          hub_->publish_commit_batch(gid, first_index, values, traces);
        });
  }
  if (sampler_) sampler_->start();
}

void LeaderServer::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // The sampler posts into the loops via the hub; join its thread before
  // anything else winds down.
  if (sampler_) sampler_->stop();
  // Workers must stop calling into the hub before the loops go away, and
  // append completions that fire from now on must become no-ops.
  service_.set_epoch_listener({});
  if (smr_ != nullptr) smr_->set_commit_listener({});
  {
    std::lock_guard<std::mutex> lock(append_sink_->mu);
    append_sink_->server = nullptr;
  }
  for (auto& l : loops_) l->loop.stop();
  for (auto& l : loops_) {
    if (l->thread.joinable()) l->thread.join();
  }
  // Loop threads are gone: connection state is safe to touch from here.
  // Drain once more first — an acceptor racing the shutdown may have
  // posted an adoption task after its target loop's final drain; running
  // it here lands the fd in l.conns so the cleanup below closes it.
  for (auto& l : loops_) l->loop.drain_pending();
  for (auto& l : loops_) {
    for (auto& [fd, conn] : l->conns) ::close(conn->fd);
    l->conns.clear();
    l->watchers.clear();
    l->commit_watchers.clear();
    l->metrics_watchers.clear();
  }
}

NetServerStats LeaderServer::stats() const {
  NetServerStats s;
  for (const auto& l : loops_) {
    s.accepted += l->counters.accepted.load(std::memory_order_relaxed);
    s.closed += l->counters.closed.load(std::memory_order_relaxed);
    s.queries += l->counters.queries.load(std::memory_order_relaxed);
    s.watches += l->counters.watches.load(std::memory_order_relaxed);
    s.events += l->counters.events.load(std::memory_order_relaxed);
    s.protocol_errors +=
        l->counters.protocol_errors.load(std::memory_order_relaxed);
    s.slow_closed += l->counters.slow_closed.load(std::memory_order_relaxed);
    s.appends += l->counters.appends.load(std::memory_order_relaxed);
    s.commit_events +=
        l->counters.commit_events.load(std::memory_order_relaxed);
    s.log_reads += l->counters.log_reads.load(std::memory_order_relaxed);
    s.point_reads += l->counters.point_reads.load(std::memory_order_relaxed);
  }
  s.connections = open_connections_.load(std::memory_order_relaxed);
  return s;
}

void LeaderServer::on_accept() {
  // Edge-triggered: accept until the backlog is drained.
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if ((errno == EMFILE || errno == ENFILE) && reserve_fd_ >= 0) {
        // Out of fds: momentarily release the reserve so the queued
        // connection can be accepted and shed — the client gets a prompt
        // reset instead of hanging in a backlog whose readiness edge has
        // already been consumed.
        ::close(reserve_fd_);
        const int shed = ::accept4(listen_fd_, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (shed >= 0) ::close(shed);
        reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        continue;
      }
      return;  // unexpected accept error: drop the batch, stay alive
    }
    if (open_connections_.load(std::memory_order_relaxed) >=
        cfg_.max_connections) {
      ::close(fd);
      continue;
    }
    set_tcp_nodelay(fd);
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t target = next_loop_;
    next_loop_ = (next_loop_ + 1) % cfg_.io_threads;
    if (target == 0) {
      adopt_connection(0, fd);
    } else {
      loops_[target]->loop.post(
          [this, target, fd] { adopt_connection(target, fd); });
    }
  }
}

void LeaderServer::adopt_connection(std::uint32_t loop_idx, int fd) {
  Loop& l = *loops_[loop_idx];
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->loop = loop_idx;
  conn->serial = next_serial_.fetch_add(1, std::memory_order_relaxed);
  l.conns.emplace(fd, std::move(conn));
  l.counters.accepted.fetch_add(1, std::memory_order_relaxed);
  l.loop.add_fd(fd, EPOLLIN, [this, loop_idx, fd](std::uint32_t events) {
    on_io(loop_idx, fd, events);
  });
}

void LeaderServer::unlink_watcher(Loop& l, WatcherMap& map, Connection& c,
                                  svc::GroupId gid) {
  const auto it = map.find(gid);
  if (it != map.end()) {
    auto& v = it->second;
    v.erase(std::remove(v.begin(), v.end(), &c), v.end());
    if (v.empty()) map.erase(it);
  }
  l.counters.watches.fetch_sub(1, std::memory_order_relaxed);
}

void LeaderServer::drop_watch(Loop& l, Connection& c, svc::GroupId gid) {
  hub_->remove_watch(gid, c.loop);
  unlink_watcher(l, l.watchers, c, gid);
}

void LeaderServer::drop_commit_watch(Loop& l, Connection& c,
                                     svc::GroupId gid) {
  hub_->remove_commit_watch(gid, c.loop);
  unlink_watcher(l, l.commit_watchers, c, gid);
}

void LeaderServer::close_connection(Loop& l, Connection& c) {
  for (const svc::GroupId gid : c.watches) drop_watch(l, c, gid);
  for (const svc::GroupId gid : c.commit_watches) {
    drop_commit_watch(l, c, gid);
  }
  if (c.metrics_watch) drop_metrics_watch(l, c);
  l.loop.remove_fd(c.fd);
  ::close(c.fd);
  l.counters.closed.fetch_add(1, std::memory_order_relaxed);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
  l.conns.erase(c.fd);  // destroys c — must be last
}

bool LeaderServer::flush(Loop& l, Connection& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Backpressure: a peer that stops reading while responses/events
      // keep queueing gets disconnected rather than growing the buffer.
      if (c.out.size() - c.out_pos > cfg_.max_outbuf_bytes) {
        l.counters.slow_closed.fetch_add(1, std::memory_order_relaxed);
        close_connection(l, c);
        return false;
      }
      if (!c.want_write) {
        c.want_write = true;
        l.loop.mod_fd(c.fd, EPOLLIN | EPOLLOUT);
      }
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    close_connection(l, c);
    return false;
  }
  c.out.clear();
  c.out_pos = 0;
  if (c.want_write) {
    c.want_write = false;
    l.loop.mod_fd(c.fd, EPOLLIN);
  }
  return true;
}

void LeaderServer::on_io(std::uint32_t loop_idx, int fd,
                         std::uint32_t events) {
  Loop& l = *loops_[loop_idx];
  const auto it = l.conns.find(fd);
  if (it == l.conns.end()) return;  // closed earlier in this batch
  Connection& c = *it->second;

  if (events & (EPOLLHUP | EPOLLERR)) {
    close_connection(l, c);
    return;
  }
  if (events & EPOLLOUT) {
    if (!flush(l, c)) return;
  }
  if (!(events & EPOLLIN)) return;

  // Edge-triggered: drain the socket. Frames are handled as they complete,
  // responses accumulate in c.out and are flushed once per readiness batch.
  // Two bounds protect the loop from a peer that sends at line rate
  // without reading replies: the output buffer is flushed (and, via the
  // backpressure check in flush(), possibly closed) whenever it exceeds
  // the cap, and one callback drains at most kReadBudget bytes before
  // re-posting itself so shard-mates on this loop still get served.
  constexpr std::size_t kReadBudget = 256 * 1024;
  std::size_t drained = 0;
  std::uint8_t buf[16 * 1024];
  Request req;
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.in.feed(buf, static_cast<std::size_t>(n));
      const std::uint8_t* payload = nullptr;
      std::size_t len = 0;
      while (c.in.next(payload, len)) {
        if (decode_request(payload, len, req) != DecodeResult::kOk) {
          l.counters.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          close_connection(l, c);
          return;
        }
        if (!handle_frame(l, c, req)) return;
      }
      if (c.in.corrupt()) {
        l.counters.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        close_connection(l, c);
        return;
      }
      if (c.out.size() - c.out_pos > cfg_.max_outbuf_bytes) {
        if (!flush(l, c)) return;  // closed: slow consumer over the cap
      }
      drained += static_cast<std::size_t>(n);
      if (drained >= kReadBudget) {
        // Yield the loop; the edge is not lost because we re-invoke
        // ourselves (the task runs after the current dispatch batch).
        flush(l, c);
        l.loop.post([this, loop_idx, fd] { on_io(loop_idx, fd, EPOLLIN); });
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof buf) break;  // drained
      continue;
    }
    if (n == 0) {  // orderly peer close
      close_connection(l, c);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(l, c);
    return;
  }
  flush(l, c);
}

bool LeaderServer::handle_frame(Loop& l, Connection& c, const Request& req) {
  const std::uint64_t id = req.header.req_id;
  const auto type_byte = static_cast<std::size_t>(req.header.type);
  frame_counters_[type_byte < kFrameCounterSlots ? type_byte : 0]->add();
  // decode_request matched the body to the type, so each case reads the
  // one alternative its type carries.
  switch (req.header.type) {
    case MsgType::kLeader: {
      const WireGroupId gid = std::get<GidBody>(req.body).gid;
      l.counters.queries.fetch_add(1, std::memory_order_relaxed);
      svc::LeaderView view;
      if (!service_.try_leader(gid, view)) {
        encode_fixed(c.out, MsgType::kLeader, Status::kUnknownGroup, id,
                     ViewBody{gid});
        return true;
      }
      encode_fixed(c.out, MsgType::kLeader, Status::kOk, id,
                   ViewBody{gid, view.leader, view.epoch});
      return true;
    }
    case MsgType::kWatch: {
      const svc::GroupId gid = std::get<GidBody>(req.body).gid;
      // Subscribe *before* reading the snapshot so a concurrent epoch
      // change is never lost (it may be duplicated; clients dedupe).
      const bool fresh = c.watches.insert(gid).second;
      if (fresh) {
        hub_->add_watch(gid, c.loop);
        l.watchers[gid].push_back(&c);
        l.counters.watches.fetch_add(1, std::memory_order_relaxed);
      }
      svc::LeaderView view;
      if (!service_.try_leader(gid, view)) {
        if (fresh) {  // roll the subscription back: nothing to watch
          drop_watch(l, c, gid);
          c.watches.erase(gid);
        }
        encode_fixed(c.out, MsgType::kWatch, Status::kUnknownGroup, id,
                     ViewBody{gid});
        return true;
      }
      encode_fixed(c.out, MsgType::kWatch, Status::kOk, id,
                   ViewBody{gid, view.leader, view.epoch});
      return true;
    }
    case MsgType::kUnwatch: {
      const svc::GroupId gid = std::get<GidBody>(req.body).gid;
      if (c.watches.erase(gid) > 0) drop_watch(l, c, gid);
      encode_fixed(c.out, MsgType::kUnwatch, Status::kOk, id, GidBody{gid});
      return true;
    }
    case MsgType::kPing:
      encode_header_only(c.out, MsgType::kPing, Status::kOk, id);
      return true;
    case MsgType::kAppend: {
      const AppendReqBody& a = std::get<AppendReqBody>(req.body);
      AppendRespBody resp;
      resp.gid = a.gid;
      if (smr_ == nullptr) {
        encode_fixed(c.out, MsgType::kAppend, Status::kUnsupported, id, resp);
        return true;
      }
      svc::LeaderView view;
      if (!service_.try_leader(a.gid, view) || !smr_->has_log(a.gid)) {
        encode_fixed(c.out, MsgType::kAppend, Status::kUnknownGroup, id, resp);
        return true;
      }
      resp.leader = view.leader;
      resp.epoch = view.epoch;
      if (view.leader == kNoProcess) {
        // No agreed leader right now: tell the client to back off and
        // retry against the (possibly new) leader instead of parking the
        // command in a queue that may not drain for a while.
        encode_fixed(c.out, MsgType::kAppend, Status::kNotLeader, id, resp);
        return true;
      }
      if (!smr_->hosts_replica(a.gid, view.leader)) {
        // Multi-node deployment and the elected leader lives on another
        // node: redirect with the hint (the pid maps to a node in the
        // client's topology) instead of queueing a command this node's
        // pump would never seal.
        encode_fixed(c.out, MsgType::kAppend, Status::kNotLeader, id, resp);
        return true;
      }
      l.counters.appends.fetch_add(1, std::memory_order_relaxed);
      obs::trace(obs::TraceEvent::kAppendEnqueue, a.gid, a.client, a.trace);
      // Asynchronous completion: park (loop, fd, serial, req_id) in the
      // callback; the owning shard worker fires it at commit and it lands
      // the acknowledgement in this loop's mailbox (batched wakeup). The
      // sink makes completions that outlive the serving phase no-ops.
      const auto sink = append_sink_;
      const std::uint32_t loop_idx = c.loop;
      PendingAck ack;
      ack.fd = c.fd;
      ack.serial = c.serial;
      ack.req_id = id;
      ack.gid = a.gid;
      ack.trace = a.trace;
      smr_->append(a.gid, a.client, a.seq, a.command,
                   [sink, loop_idx, ack](smr::AppendOutcome outcome,
                                         std::uint64_t index) mutable {
                     std::lock_guard<std::mutex> lock(sink->mu);
                     LeaderServer* s = sink->server;
                     if (s == nullptr) return;  // server already stopped
                     ack.outcome = outcome;
                     ack.index = index;
                     s->enqueue_ack(loop_idx, ack);
                   },
                   a.trace);
      return true;
    }
    case MsgType::kReadLog: {
      const ReadLogReqBody& r = std::get<ReadLogReqBody>(req.body);
      smr::LogGroup::Snapshot snap;
      Status status = Status::kOk;
      if (smr_ == nullptr) {
        status = Status::kUnsupported;
      } else if (!smr_->read_log(r.gid, r.from,
                                 std::min(r.max, kMaxLogEntries), snap)) {
        status = Status::kUnknownGroup;
      } else {
        l.counters.log_reads.fetch_add(1, std::memory_order_relaxed);
      }
      encode_readlog_response(c.out, status, id, r.gid, snap.commit_index,
                              snap.entries);
      return true;
    }
    case MsgType::kCommitWatch: {
      const svc::GroupId gid = std::get<GidBody>(req.body).gid;
      if (smr_ == nullptr || !smr_->has_log(gid)) {
        encode_fixed(c.out, MsgType::kCommitWatch,
                     smr_ == nullptr ? Status::kUnsupported
                                     : Status::kUnknownGroup,
                     id, CommitSnapshotBody{gid, 0});
        return true;
      }
      // Subscribe before the snapshot, as with WATCH: a commit racing the
      // subscription shows up in the snapshot, as an event, or both.
      const bool fresh = c.commit_watches.insert(gid).second;
      if (fresh) {
        hub_->add_commit_watch(gid, c.loop);
        l.commit_watchers[gid].push_back(&c);
        l.counters.watches.fetch_add(1, std::memory_order_relaxed);
      }
      encode_fixed(c.out, MsgType::kCommitWatch, Status::kOk, id,
                   CommitSnapshotBody{gid, smr_->commit_index(gid)});
      return true;
    }
    case MsgType::kCommitUnwatch: {
      const svc::GroupId gid = std::get<GidBody>(req.body).gid;
      if (c.commit_watches.erase(gid) > 0) drop_commit_watch(l, c, gid);
      encode_fixed(c.out, MsgType::kCommitUnwatch, Status::kOk, id,
                   GidBody{gid});
      return true;
    }
    case MsgType::kSessionOpen: {
      const SessionOpenReqBody& s = std::get<SessionOpenReqBody>(req.body);
      SessionOpenRespBody resp;
      resp.gid = s.gid;
      Status status = Status::kOk;
      std::int64_t ttl_us = 0;
      if (smr_ == nullptr) {
        status = Status::kUnsupported;
      } else if (!smr_->open_session(s.gid, s.client, ttl_us)) {
        status = Status::kUnknownGroup;
      } else {
        resp.ttl_us = static_cast<std::uint64_t>(ttl_us);
      }
      encode_fixed(c.out, MsgType::kSessionOpen, status, id, resp);
      return true;
    }
    case MsgType::kMetrics: {
      // Paged scrape of the process-wide obs registry (v1.3). Each page
      // re-scrapes the name-sorted set, so a metric registering mid-scrape
      // (lazy registration during startup ramp) can shift indices between
      // pages; Client::metrics() dedupes by name and the scrape is
      // best-effort until every registration has happened once.
      const std::vector<obs::MetricSample> samples = obs::scrape();
      MetricsRespBody resp;
      resp.node = cfg_.node_id;
      resp.total = static_cast<std::uint32_t>(samples.size());
      resp.start =
          std::min(std::get<PageReqBody>(req.body).start, resp.total);
      const std::size_t end =
          metrics_page_end(samples, resp.start, kHeaderBytes + 12 + 4);
      resp.metrics.assign(samples.begin() + resp.start,
                          samples.begin() + end);
      encode_metrics_response(c.out, Status::kOk, id, resp);
      return true;
    }
    case MsgType::kTraceDump: {
      // Paged scrape of this process's flight-recorder rings (v1.4).
      // Every page harvests the rings afresh and pages NEWEST-first, so
      // records that churn out of a ring between two pages surface as
      // duplicates the client dedupes — never as silent gaps in the
      // middle of the timeline.
      const std::vector<obs::TraceRecord> snap = obs::snapshot_trace();
      TraceDumpRespBody resp;
      resp.total = static_cast<std::uint32_t>(snap.size());
      resp.start =
          std::min(std::get<PageReqBody>(req.body).start, resp.total);
      resp.realtime_offset_ns = obs::realtime_offset_ns();
      constexpr std::uint32_t kPage = static_cast<std::uint32_t>(
          (kMaxPayloadBytes - kHeaderBytes - 20) / kTraceRecordWireBytes);
      const std::uint32_t count =
          std::min<std::uint32_t>(kPage, resp.total - resp.start);
      resp.records.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        // snapshot_trace() sorts oldest-first; newest-first position
        // start + i is the mirrored index.
        resp.records.push_back(snap[resp.total - 1 - (resp.start + i)]);
      }
      encode_trace_dump_response(c.out, Status::kOk, id, resp);
      return true;
    }
    case MsgType::kHealth: {
      // The health engine's verdict as of the last sampler tick (v1.5).
      if (sampler_ == nullptr) {
        encode_health_response(c.out, Status::kUnsupported, id,
                               HealthRespBody{});
        return true;
      }
      const obs::HealthReport rep = sampler_->health().report();
      HealthRespBody resp;
      resp.overall = static_cast<std::uint8_t>(rep.overall);
      resp.ticks = rep.ticks;
      resp.rules_total = static_cast<std::uint8_t>(
          std::min<std::size_t>(rep.rules.size(), 255));
      for (const obs::RuleState& r : rep.rules) {
        if (r.published == obs::Health::kOk) continue;
        if (resp.firing.size() >= 255) break;  // u8 count on the wire
        HealthRuleWire w;
        w.status = static_cast<std::uint8_t>(r.published);
        w.name = r.name;
        w.reason = r.reason;
        resp.firing.push_back(std::move(w));
      }
      encode_health_response(c.out, Status::kOk, id, resp);
      return true;
    }
    case MsgType::kMetricsWatch: {
      // Subscribe this connection to the sampler stream (v1.5); pushes
      // start with the next tick. Idempotent per connection.
      if (sampler_ == nullptr) {
        encode_fixed(c.out, MsgType::kMetricsWatch, Status::kUnsupported, id,
                     MetricsWatchRespBody{0});
        return true;
      }
      if (!c.metrics_watch) {
        c.metrics_watch = true;
        hub_->add_metrics_watch(c.loop);
        l.metrics_watchers.push_back(&c);
        l.counters.watches.fetch_add(1, std::memory_order_relaxed);
      }
      encode_fixed(c.out, MsgType::kMetricsWatch, Status::kOk, id,
                   MetricsWatchRespBody{cfg_.sample_period_ms});
      return true;
    }
    case MsgType::kRead:
      handle_read(l, c, id, std::get<ReadReqBody>(req.body));
      return true;
    case MsgType::kRegHello:
    case MsgType::kRegPush:
      // Mirror streams dial the MirrorTransport's own port, never this
      // one; a peer sending them here is broken.
      l.counters.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      close_connection(l, c);
      return false;
    default:
      encode_header_only(c.out, req.header.type, Status::kUnsupported, id);
      return true;
  }
}

void LeaderServer::handle_read(Loop& l, Connection& c, std::uint64_t req_id,
                               const ReadReqBody& req) {
  ReadRespBody resp{req.gid, req.key};
  if (smr_ == nullptr) {
    encode_fixed(c.out, MsgType::kRead, Status::kUnsupported, req_id, resp);
    return;
  }
  svc::LeaderView view;
  smr::LogGroup::ReadAnswer answer;
  smr::LogGroup::ReadMode mode{};
  const auto sink = append_sink_;
  const std::uint32_t loop_idx = c.loop;
  PendingAck ack;
  ack.kind = PendingAck::Kind::kRead;
  ack.fd = c.fd;
  ack.serial = c.serial;
  ack.req_id = req_id;
  ack.gid = req.gid;
  ack.key = req.key;
  if (!smr_->read_point(
          req.gid, req.key, req.min_index, view, answer, mode,
          [sink, loop_idx, ack](bool passed,
                                const smr::LogGroup::ReadAnswer& a) mutable {
            // Owner-thread fire (fence passed or deadline expired): same
            // mailbox + no-op-after-stop discipline as append commits.
            std::lock_guard<std::mutex> lock(sink->mu);
            LeaderServer* s = sink->server;
            if (s == nullptr) return;
            ack.read_status =
                passed ? Status::kIndexRead : Status::kOverloaded;
            ack.index = a.index;
            ack.commit_index = a.commit_index;
            s->enqueue_ack(loop_idx, ack);
          })) {
    encode_fixed(c.out, MsgType::kRead, Status::kUnknownGroup, req_id, resp);
    return;
  }
  l.counters.point_reads.fetch_add(1, std::memory_order_relaxed);
  resp.leader = view.leader;
  resp.epoch = view.epoch;
  resp.index = answer.index;
  resp.commit_index = answer.commit_index;
  Status status = Status::kOverloaded;
  switch (mode) {
    case smr::LogGroup::ReadMode::kLease:
      status = Status::kLeaseRead;
      break;
    case smr::LogGroup::ReadMode::kFallback:
      status = Status::kOk;
      break;
    case smr::LogGroup::ReadMode::kRefused:
      // Committed data rides along as a hint, but never with authority:
      // this node's cached self-view may be a deposed leader's.
      status = Status::kNotLeader;
      break;
    case smr::LogGroup::ReadMode::kIndex:
      status = Status::kIndexRead;
      break;
    case smr::LogGroup::ReadMode::kDefer:
      return;  // parked; the response rides the ack mailbox
    case smr::LogGroup::ReadMode::kOverloaded:
      break;
  }
  encode_fixed(c.out, MsgType::kRead, status, req_id, resp);
}

void LeaderServer::fan_out(Loop& l, const std::vector<Connection*>& targets,
                           const std::function<void(Connection&)>& write) {
  // Snapshot fds, not pointers: flushing one target can close a
  // connection (backpressure) and unlink it from `targets`, and a freed
  // sibling must be detected by key lookup, never by its pointer.
  std::vector<int> target_fds;
  target_fds.reserve(targets.size());
  for (const Connection* c : targets) target_fds.push_back(c->fd);
  for (const int fd : target_fds) {
    const auto cit = l.conns.find(fd);
    if (cit == l.conns.end()) continue;  // closed earlier in this delivery
    write(*cit->second);
    flush(l, *cit->second);
  }
}

void LeaderServer::deliver_commit_batch(
    std::uint32_t loop_idx, svc::GroupId gid, std::uint64_t first_index,
    const std::vector<std::uint64_t>& values,
    const std::vector<std::uint64_t>& traces) {
  Loop& l = *loops_[loop_idx];
  obs::trace(obs::TraceEvent::kCommitFanout, gid, first_index,
             traces.empty() ? 0 : traces.front(),
             traces.empty() ? 0 : traces.back());
  const auto it = l.commit_watchers.find(gid);
  if (it == l.commit_watchers.end()) return;  // last watcher left
  // The whole batch lands in each subscriber's buffer before its one
  // flush — a 64-command slot costs a watcher one syscall, not 64.
  fan_out(l, it->second, [&](Connection& c) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      encode_fixed(c.out, MsgType::kCommitEvent, Status::kOk, /*req_id=*/0,
                   CommitBody{gid, first_index + i, values[i],
                              i < traces.size() ? traces[i] : 0});
    }
    l.counters.commit_events.fetch_add(values.size(),
                                       std::memory_order_relaxed);
  });
}

void LeaderServer::enqueue_ack(std::uint32_t loop_idx, PendingAck ack) {
  Loop& l = *loops_[loop_idx];
  ack.enqueue_ns = steady_ns();
  bool need_post = false;
  {
    std::lock_guard<std::mutex> lock(l.ack_mu);
    l.acks.push_back(ack);
    need_post = !l.ack_drain_scheduled;
    l.ack_drain_scheduled = true;
  }
  // One wakeup per backlog: every acknowledgement that lands before the
  // drain task runs rides the same post.
  if (need_post) {
    l.loop.post([this, loop_idx] { drain_acks(loop_idx); });
  }
}

void LeaderServer::drain_acks(std::uint32_t loop_idx) {
  Loop& l = *loops_[loop_idx];
  {
    std::lock_guard<std::mutex> lock(l.ack_mu);
    l.ack_scratch.swap(l.acks);
    l.ack_drain_scheduled = false;
  }
  // Pass 1: encode every acknowledgement into its connection's buffer.
  // Nothing closes a connection here, so raw Connection lookups are safe.
  std::vector<int> touched;
  const std::int64_t drain_ns = steady_ns();
  for (const PendingAck& ack : l.ack_scratch) {
    if (ack.enqueue_ns > 0 && drain_ns > ack.enqueue_ns) {
      ack_flush_hist_->record(
          static_cast<std::uint64_t>(drain_ns - ack.enqueue_ns));
    }
    const auto it = l.conns.find(ack.fd);
    if (it == l.conns.end()) continue;  // connection died while waiting
    Connection& c = *it->second;
    if (c.serial != ack.serial) continue;  // fd recycled: different conn
    // The leader hint is re-read at drain time, so the client routes off
    // the freshest view this node has.
    svc::LeaderView view;
    service_.try_leader(ack.gid, view);
    if (c.out.empty()) touched.push_back(ack.fd);
    if (ack.kind == PendingAck::Kind::kRead) {
      // A deferred fence read resolved; its status was decided at fire
      // time.
      encode_fixed(c.out, MsgType::kRead, ack.read_status, ack.req_id,
                   ReadRespBody{ack.gid, ack.key, ack.index, ack.commit_index,
                                view.leader, view.epoch});
      continue;
    }
    const Status status = append_status(ack.outcome);
    encode_fixed(c.out, MsgType::kAppend, status, ack.req_id,
                 AppendRespBody{ack.gid, status == Status::kOk ? ack.index : 0,
                                view.leader, view.epoch, ack.trace});
  }
  obs::trace(obs::TraceEvent::kAckFlush, l.ack_scratch.size(),
             touched.size());
  l.ack_scratch.clear();
  // Pass 2: one flush per touched connection — with the fd-snapshot
  // discipline (flushing one target can close a sibling, which must be
  // detected by key lookup). A connection whose buffer was already
  // non-empty has a flush pending elsewhere (EPOLLOUT or its reader).
  for (const int fd : touched) {
    const auto it = l.conns.find(fd);
    if (it == l.conns.end()) continue;
    flush(l, *it->second);
  }
}

void LeaderServer::drop_metrics_watch(Loop& l, Connection& c) {
  hub_->remove_metrics_watch(c.loop);
  auto& v = l.metrics_watchers;
  v.erase(std::remove(v.begin(), v.end(), &c), v.end());
  l.counters.watches.fetch_sub(1, std::memory_order_relaxed);
}

void LeaderServer::deliver_metrics(
    std::uint32_t loop_idx,
    std::shared_ptr<const std::vector<std::uint8_t>> bytes) {
  Loop& l = *loops_[loop_idx];
  fan_out(l, l.metrics_watchers, [&](Connection& c) {
    if (!c.metrics_watch) return;  // fd recycled by a non-subscriber
    c.out.insert(c.out.end(), bytes->begin(), bytes->end());
    frame_counters_[static_cast<std::size_t>(MsgType::kMetricsEvent)]->add();
  });
}

void LeaderServer::deliver_event(std::uint32_t loop_idx, svc::GroupId gid,
                                 svc::LeaderView view) {
  Loop& l = *loops_[loop_idx];
  const auto it = l.watchers.find(gid);
  if (it == l.watchers.end()) return;  // last watcher left
  fan_out(l, it->second, [&](Connection& c) {
    encode_fixed(c.out, MsgType::kEvent, Status::kOk, /*req_id=*/0,
                 ViewBody{gid, view.leader, view.epoch});
    l.counters.events.fetch_add(1, std::memory_order_relaxed);
  });
}

}  // namespace omega::net
