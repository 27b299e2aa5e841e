#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <tuple>
#include <unordered_map>

namespace omega::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

/// splitmix64 finalizer: a cheap bijective mix, so the minted trace-id
/// stream never repeats within a client and is well spread across
/// clients salted differently.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::chrono::steady_clock::time_point deadline_after(int ms) {
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

/// Milliseconds left until `deadline` (negative once it has passed).
int ms_until(std::chrono::steady_clock::time_point deadline) {
  return static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now())
          .count());
}

/// Backoff for attempt `k` (0-based) under `p`, with jitter from `rng`.
int backoff_ms(const RetryPolicy& p, int k, Rng& rng) {
  std::int64_t ms = p.base_ms;
  for (int i = 0; i < k && ms < p.cap_ms; ++i) ms *= 2;
  ms = std::min<std::int64_t>(ms, p.cap_ms);
  const double j = p.jitter <= 0 ? 0.0 : rng.uniform01() * p.jitter;
  return static_cast<int>(ms + static_cast<std::int64_t>(
                                   static_cast<double>(ms) * j));
}

}  // namespace

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // A Client may reconnect after close(): drop every remnant of the old
  // stream — half-received frames, a terminal corrupt flag, events from
  // subscriptions that died with the connection, acknowledgements of
  // appends that will never arrive.
  in_ = FrameDecoder{};
  events_.clear();
  outstanding_appends_.clear();
  done_appends_.clear();
  outstanding_reads_.clear();
  done_reads_.clear();
  // A tick half-assembled when the stream died can never complete; the
  // subscription flag itself survives for resubscribe().
  pending_tick_open_ = false;
  pending_samples_.clear();
  call_id_ = 0;
  reply_.reset();
  next_req_id_ = 1;
}

void Client::connect(const std::string& host, std::uint16_t port,
                     int timeout_ms) {
  if (fd_ >= 0) throw NetError("already connected");
  host_ = host;
  port_ = port;
  connect_timeout_ms_ = timeout_ms;
  dial(timeout_ms);
}

void Client::dial(int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    throw NetError("bad address: " + host_);
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket");
  // Non-blocking connect so the timeout is enforceable.
  const int flags = fcntl(fd_, F_GETFL, 0);
  fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    close();
    throw_errno("connect");
  }
  if (rc != 0) {
    pollfd pfd{fd_, POLLOUT, 0};
    rc = ::poll(&pfd, 1, timeout_ms);
    if (rc <= 0) {
      close();
      throw NetError("connect timeout");
    }
    int err = 0;
    socklen_t len = sizeof err;
    getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      close();
      errno = err;
      throw_errno("connect");
    }
  }
  fcntl(fd_, F_SETFL, flags);  // back to blocking; waits go through poll()
  int one = 1;
  (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void Client::reconnect() {
  if (fd_ >= 0) return;
  if (host_.empty()) throw NetError("no remembered endpoint to reconnect");
  for (int attempt = 0;; ++attempt) {
    try {
      dial(connect_timeout_ms_);
      break;
    } catch (const NetError&) {
      if (attempt + 1 >= policy_.max_attempts) throw;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(
        backoff_ms(policy_, attempt, backoff_rng_)));
  }
  resubscribe();
}

void Client::resubscribe(int response_timeout_ms) {
  // Subscriptions died with the old connection; re-issue them on the new
  // one so watchers survive a server restart without their own dial
  // logic. The snapshot responses are absorbed here (the caller's watch
  // state machine already dedupes by epoch/commit index); a connection
  // that dies mid-resubscribe surfaces as the NetError of the caller's
  // own request, exactly like any other transport failure.
  // `response_timeout_ms` budgets the WHOLE batch, not each
  // subscription — a caller with a deadline (append_retry) must not
  // wait subscriptions x budget against a stalling server.
  const auto deadline = deadline_after(response_timeout_ms);
  for (const svc::GroupId gid : watched_gids_) {
    (void)call(MsgType::kWatch, gid, std::max(1, ms_until(deadline)));
  }
  for (const svc::GroupId gid : commit_watched_gids_) {
    (void)call(MsgType::kCommitWatch, gid, std::max(1, ms_until(deadline)));
  }
  if (metrics_watched_) {
    (void)call(MsgType::kMetricsWatch, std::nullopt,
               std::max(1, ms_until(deadline)));
  }
}

void Client::enable_auto_reconnect(RetryPolicy policy) {
  auto_reconnect_ = true;
  policy_ = policy;
  backoff_rng_ = Rng(policy.seed);
}

void Client::ensure_connected() {
  if (fd_ >= 0) return;
  if (!auto_reconnect_) throw NetError("not connected");
  reconnect();
}

void Client::send_all(const std::uint8_t* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool Client::fill(int timeout_ms) {
  // EINTR (a signal in the host application) must consume budget, not
  // fabricate a timeout: retry with the remaining time until the deadline.
  const auto deadline = deadline_after(timeout_ms);
  for (;;) {
    const int remaining = std::max(0, ms_until(deadline));
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, remaining);
    if (rc < 0) {
      if (errno == EINTR) {
        if (std::chrono::steady_clock::now() >= deadline) return false;
        continue;
      }
      throw_errno("poll");
    }
    if (rc == 0) return false;
    std::uint8_t buf[8192];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n == 0) throw NetError("server closed the connection");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;  // readiness evaporated; re-poll with what's left
      }
      throw_errno("recv");
    }
    in_.feed(buf, static_cast<std::size_t>(n));
    if (in_.corrupt()) throw NetError("oversized frame from server");
    return true;
  }
}

std::optional<Response> Client::pop_frame() {
  const std::uint8_t* payload = nullptr;
  std::size_t len = 0;
  if (!in_.next(payload, len)) return std::nullopt;
  Response f;
  if (decode_response(payload, len, f) != DecodeResult::kOk) {
    close();
    throw NetError("malformed frame from server");
  }
  return f;
}

bool Client::queue_event(const Response& f) {
  Event e;
  switch (f.header.type) {
    case MsgType::kEvent: {
      const ViewBody& v = std::get<ViewBody>(f.body);
      e.kind = Event::Kind::kLeaderChange;
      e.gid = v.gid;
      e.view = svc::LeaderView{v.leader, v.epoch};
      break;
    }
    case MsgType::kCommitEvent: {
      const CommitBody& c = std::get<CommitBody>(f.body);
      e.kind = Event::Kind::kCommit;
      e.gid = c.gid;
      e.index = c.index;
      e.value = c.value;
      e.trace = c.trace;
      break;
    }
    case MsgType::kMetricsEvent: {
      // One sampler tick arrives as 1..n pages sharing a tick number; only
      // a complete tick becomes an event. A page whose head we never saw
      // (subscribed mid-tick, or the head fell to the event-queue cap on
      // the server) is swallowed — the next tick starts clean at start=0.
      const MetricsEventBody& p = std::get<MetricsEventBody>(f.body);
      if (p.start == 0) {
        pending_tick_open_ = true;
        pending_tick_ = p.tick;
        pending_health_ = p.health;
        pending_samples_.clear();
      } else if (!pending_tick_open_ || p.tick != pending_tick_) {
        return true;
      }
      pending_samples_.insert(pending_samples_.end(), p.metrics.begin(),
                              p.metrics.end());
      if (p.start + p.metrics.size() < p.total) return true;
      pending_tick_open_ = false;
      e.kind = Event::Kind::kMetricsTick;
      e.tick = pending_tick_;
      e.health = pending_health_;
      e.samples = std::move(pending_samples_);
      pending_samples_.clear();
      break;
    }
    default:
      return false;
  }
  // A subscriber that issues requests without draining next_event() must
  // not grow memory forever (a busy commit watch pushes one event per
  // applied entry group-wide): keep the newest kMaxQueuedEvents, drop the
  // oldest. Consumers already resynchronize by epoch/index.
  if (events_.size() >= kMaxQueuedEvents) events_.pop_front();
  events_.push_back(std::move(e));
  return true;
}

std::uint64_t Client::begin_request() {
  ensure_connected();
  out_.clear();
  return next_req_id_++;
}

Response Client::call(MsgType type, std::optional<WireGroupId> gid,
                      int response_timeout_ms) {
  const std::uint64_t id = begin_request();
  if (gid) {
    encode_fixed(out_, type, Status::kOk, id, GidBody{*gid});
  } else {
    encode_header_only(out_, type, Status::kOk, id);
  }
  return call_encoded(type, id, response_timeout_ms);
}

bool Client::absorb(Response& f) {
  if (queue_event(f)) return true;
  const std::uint64_t id = f.header.req_id;
  if (f.header.type == MsgType::kAppend &&
      outstanding_appends_.erase(id) > 0) {
    done_appends_.push_back(AsyncAppend{id, to_append_result(f)});
    return true;
  }
  if (f.header.type == MsgType::kRead && outstanding_reads_.erase(id) > 0) {
    done_reads_.push_back(AsyncRead{id, to_read_result(f)});
    return true;
  }
  if (call_id_ != 0 && id == call_id_ && f.header.type == call_type_) {
    call_id_ = 0;
    reply_ = std::move(f);
    return true;
  }
  return false;
}

template <class Done>
bool Client::wait_until(std::chrono::steady_clock::time_point deadline,
                        Done done) {
  for (;;) {
    while (std::optional<Response> f = pop_frame()) {
      if (!absorb(*f)) {
        // absorb() matches every live request — the blocking call's and
        // each async one — so this frame answers nothing we asked (e.g. a
        // late reply to a call that timed out): the stream cannot be
        // resynchronized.
        close();
        throw NetError("response does not match any outstanding request");
      }
    }
    if (done()) return true;
    // A due deadline still polls the socket once, so a zero timeout
    // drains what the kernel already holds.
    const int left = ms_until(deadline);
    if (left < 0 || !fill(left)) return false;
  }
}

template <class T>
std::optional<T> Client::pop_when_ready(std::deque<T>& q, int timeout_ms) {
  // A timeout here is not a protocol failure: answers are matched by
  // req_id whenever they do arrive, so the connection stays usable.
  if (q.empty() &&
      !wait_until(deadline_after(timeout_ms), [&q] { return !q.empty(); })) {
    return std::nullopt;
  }
  T v = std::move(q.front());
  q.pop_front();
  return v;
}

template <class Async>
Async Client::await_async(std::deque<Async>& done, std::uint64_t id,
                          int timeout_ms) {
  const auto find = [&done, id] {
    return std::find_if(done.begin(), done.end(),
                        [id](const Async& a) { return a.req_id == id; });
  };
  if (!wait_until(deadline_after(timeout_ms),
                  [&] { return find() != done.end(); })) {
    // The response may still arrive later and would desynchronize every
    // subsequent call; a timed-out connection is only safe to abandon.
    close();
    throw NetError("timed out waiting for a response");
  }
  const auto it = find();
  Async a = std::move(*it);
  done.erase(it);
  return a;
}

Client::AppendResult Client::to_append_result(const Response& f) {
  const AppendRespBody& b = std::get<AppendRespBody>(f.body);
  AppendResult r;
  r.status = f.header.status;
  r.index = b.index;
  r.view = svc::LeaderView{b.leader, b.epoch};
  r.trace = b.trace;
  return r;
}

Client::ReadResult Client::to_read_result(const Response& f) {
  const ReadRespBody& b = std::get<ReadRespBody>(f.body);
  ReadResult r;
  r.status = f.header.status;
  r.index = b.index;
  r.commit_index = b.commit_index;
  r.view = svc::LeaderView{b.leader, b.epoch};
  return r;
}

std::uint64_t Client::mint_trace_id() {
  if (trace_seq_ == 0) {
    // Per-client salt: distinct clients (other processes included) must
    // mint from disjoint streams. Clock + object identity is plenty for a
    // forensic correlation id — this is not a security token.
    trace_seq_ =
        static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count()) ^
        (static_cast<std::uint64_t>(::getpid()) << 32) ^
        reinterpret_cast<std::uintptr_t>(this);
  }
  std::uint64_t id = 0;
  do {
    id = splitmix64(trace_seq_++);
  } while (id == 0);  // 0 means "untraced" on the wire
  last_trace_ = id;
  return id;
}

Response Client::call_encoded(MsgType type, std::uint64_t id,
                              int response_timeout_ms) {
  send_all(out_.data(), out_.size());
  call_id_ = id;
  call_type_ = type;
  // One deadline across every socket wait: interleaved pushes and async
  // acknowledgements must not extend the response budget.
  if (!wait_until(deadline_after(response_timeout_ms),
                  [this] { return reply_.has_value(); })) {
    close();  // a late answer would desynchronize every later call
    throw NetError("timed out waiting for a response");
  }
  Response r = std::move(*reply_);
  reply_.reset();
  return r;
}

namespace {

Client::Result view_result(const Response& f) {
  const ViewBody& v = std::get<ViewBody>(f.body);
  return Client::Result{f.header.status, v.gid,
                        svc::LeaderView{v.leader, v.epoch}};
}

Client::Result gid_result(const Response& f) {
  return Client::Result{f.header.status, std::get<GidBody>(f.body).gid,
                        svc::LeaderView{}};
}

}  // namespace

Client::Result Client::leader(svc::GroupId gid) {
  return view_result(call(MsgType::kLeader, gid));
}

Client::Result Client::watch(svc::GroupId gid) {
  const Result r = view_result(call(MsgType::kWatch, gid));
  if (r.ok()) watched_gids_.insert(gid);
  return r;
}

Client::Result Client::unwatch(svc::GroupId gid) {
  watched_gids_.erase(gid);
  return gid_result(call(MsgType::kUnwatch, gid));
}

std::uint64_t Client::append_async(svc::GroupId gid, std::uint64_t client,
                                   std::uint64_t seq, std::uint64_t command) {
  const std::uint64_t id = begin_request();
  AppendReqBody req;
  req.gid = gid;
  req.client = client;
  req.seq = seq;
  req.command = command;
  req.trace = mint_trace_id();
  encode_fixed(out_, MsgType::kAppend, Status::kOk, id, req);
  send_all(out_.data(), out_.size());
  outstanding_appends_.insert(id);
  return id;
}

std::optional<Client::AsyncAppend> Client::next_append_result(
    int timeout_ms) {
  if (done_appends_.empty() && (fd_ < 0 || outstanding_appends_.empty())) {
    return std::nullopt;
  }
  return pop_when_ready(done_appends_, timeout_ms);
}

Client::AppendResult Client::append(svc::GroupId gid, std::uint64_t client,
                                    std::uint64_t seq, std::uint64_t command,
                                    int response_timeout_ms) {
  // The blocking form is the pipelined form plus "wait for this one".
  const std::uint64_t id = append_async(gid, client, seq, command);
  return await_async(done_appends_, id, response_timeout_ms).result;
}

Client::AppendResult Client::append_retry(svc::GroupId gid,
                                          std::uint64_t client,
                                          std::uint64_t seq,
                                          std::uint64_t command,
                                          int timeout_ms) {
  const auto deadline = deadline_after(timeout_ms);
  std::string last_error = "append timed out";
  for (int attempt = 0;; ++attempt) {
    const int remaining = ms_until(deadline);
    if (remaining <= 0) throw NetError("append_retry: " + last_error);
    try {
      // Redial here — one bounded attempt per loop iteration — rather
      // than through reconnect()'s own multi-dial backoff, so the
      // caller's budget caps every wait in this function.
      if (fd_ < 0 && auto_reconnect_) {
        // Both the dial and the re-subscriptions live inside the
        // caller's remaining budget — append_retry's contract is that
        // every wait is clamped to it.
        dial(std::min(connect_timeout_ms_, remaining));
        resubscribe(std::max(1, remaining));
      }
      // Each attempt spends at most the remaining budget waiting for its
      // acknowledgement, so the caller's timeout is honored even when a
      // single response stalls.
      const AppendResult r = append(gid, client, seq, command,
                                    std::min(remaining, kResponseTimeoutMs));
      // kSessionEvicted means the dedup window for this client expired on
      // the server; the append was NOT taken. Re-open the session (same
      // connection, no backoff — this is a protocol exchange, not an
      // outage) and resubmit immediately with the same (client, seq) key.
      if (r.status == Status::kSessionEvicted) {
        const SessionInfo s = open_session(gid, client);
        if (s.status == Status::kOk) continue;
        last_error = "session re-open rejected";
      } else if (r.status != Status::kNotLeader &&
                 r.status != Status::kOverloaded) {
        // kNotLeader ("wait for the next leader") and kOverloaded ("intake
        // full, retry later") are transient: back off and ask again — the
        // dedup key keeps the retries idempotent. Everything else is an
        // answer (including kOk with the committed index for a duplicate).
        return r;
      } else {
        last_error = r.status == Status::kNotLeader ? "no agreed leader"
                                                    : "server overloaded";
      }
    } catch (const NetError& e) {
      // Transport failure (server restart, timeout, partial write): the
      // stream is not trustworthy — drop it. The next append() redials
      // if auto-reconnect is on; otherwise the error is final.
      close();
      if (!auto_reconnect_) throw;
      last_error = e.what();
    }
    const int left = ms_until(deadline);
    if (left <= 0) throw NetError("append_retry: " + last_error);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min(left, backoff_ms(policy_, attempt, backoff_rng_))));
  }
}

std::uint64_t Client::read_async(svc::GroupId gid, std::uint64_t key,
                                 std::uint64_t min_index) {
  const std::uint64_t id = begin_request();
  ReadReqBody req;
  req.gid = gid;
  req.key = key;
  req.min_index = min_index;
  encode_fixed(out_, MsgType::kRead, Status::kOk, id, req);
  send_all(out_.data(), out_.size());
  outstanding_reads_.insert(id);
  return id;
}

std::optional<Client::AsyncRead> Client::next_read_result(int timeout_ms) {
  if (done_reads_.empty() && (fd_ < 0 || outstanding_reads_.empty())) {
    return std::nullopt;
  }
  return pop_when_ready(done_reads_, timeout_ms);
}

Client::ReadResult Client::read(svc::GroupId gid, std::uint64_t key,
                                std::uint64_t min_index,
                                int response_timeout_ms) {
  // The blocking form is the pipelined form plus "wait for this one".
  const std::uint64_t id = read_async(gid, key, min_index);
  return await_async(done_reads_, id, response_timeout_ms).result;
}

Client::LogView Client::read_log(svc::GroupId gid, std::uint64_t from,
                                 std::uint32_t max) {
  const std::uint64_t id = begin_request();
  ReadLogReqBody req;
  req.gid = gid;
  req.from = from;
  req.max = max;
  encode_fixed(out_, MsgType::kReadLog, Status::kOk, id, req);
  Response f = call_encoded(MsgType::kReadLog, id);
  LogView v;
  v.status = f.header.status;
  if (f.header.status == Status::kOk) {
    ReadLogRespBody& page = std::get<ReadLogRespBody>(f.body);
    v.commit_index = page.commit_index;
    v.entries = std::move(page.entries);
  }
  return v;
}

Client::LogView Client::read_log_all(svc::GroupId gid,
                                     std::size_t max_entries) {
  LogView all;
  std::uint64_t from = 0;
  for (;;) {
    const LogView page = read_log(gid, from, kMaxLogEntries);
    all.status = page.status;
    if (page.status != Status::kOk) return all;
    all.commit_index = page.commit_index;
    for (const std::uint64_t v : page.entries) {
      if (all.entries.size() >= max_entries) return all;  // budget spent
      all.entries.push_back(v);
    }
    from += page.entries.size();
    // An empty kOk page means `from` reached the applied frontier; a log
    // growing mid-pagination simply ends with entries.size() below the
    // final page's commit_index.
    if (page.entries.empty() || from >= page.commit_index) return all;
  }
}

Client::AppendResult Client::commit_watch(svc::GroupId gid) {
  const Response f = call(MsgType::kCommitWatch, gid);
  if (f.header.status == Status::kOk) commit_watched_gids_.insert(gid);
  AppendResult r;
  r.status = f.header.status;
  r.index = std::get<CommitSnapshotBody>(f.body).commit_index;
  return r;
}

Client::Result Client::commit_unwatch(svc::GroupId gid) {
  commit_watched_gids_.erase(gid);
  return gid_result(call(MsgType::kCommitUnwatch, gid));
}

Client::SessionInfo Client::open_session(svc::GroupId gid,
                                         std::uint64_t client) {
  const std::uint64_t id = begin_request();
  encode_fixed(out_, MsgType::kSessionOpen, Status::kOk, id,
               SessionOpenReqBody{gid, client});
  const Response f = call_encoded(MsgType::kSessionOpen, id);
  SessionInfo info;
  info.status = f.header.status;
  if (f.header.status == Status::kOk) {
    info.ttl_us =
        static_cast<std::int64_t>(std::get<SessionOpenRespBody>(f.body).ttl_us);
  }
  return info;
}

void Client::ping() {
  if (call(MsgType::kPing, std::nullopt).header.status != Status::kOk) {
    throw NetError("ping rejected");
  }
}

const obs::MetricSample* Client::MetricsResult::find(
    const std::string& name) const noexcept {
  for (const obs::MetricSample& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

template <class Page, class Take>
Status Client::page_through(MsgType type, Take take) {
  for (std::uint32_t start = 0;;) {
    const std::uint64_t id = begin_request();
    encode_fixed(out_, type, Status::kOk, id, PageReqBody{start});
    const Response f = call_encoded(type, id);
    if (f.header.status != Status::kOk) return f.header.status;
    const Page& page = std::get<Page>(f.body);
    const auto count = static_cast<std::uint32_t>(take(page));
    // An empty page below total would loop forever — treat it as done.
    if (count == 0 || page.start + count >= page.total) return Status::kOk;
    start = page.start + count;
  }
}

Client::MetricsResult Client::metrics() {
  MetricsResult r;
  // Each page re-scrapes the name-sorted registry, so a metric registering
  // mid-scrape (lazy registration on a just-started node) can shift indices
  // between pages and repeat a name. Dedupe by name, keeping the later —
  // fresher — sample; a shift can still drop a name from this scrape, which
  // the next scrape picks up.
  std::unordered_map<std::string, std::size_t> by_name;
  r.status = page_through<MetricsRespBody>(
      MsgType::kMetrics, [&](const MetricsRespBody& page) {
        r.node = page.node;
        for (const obs::MetricSample& m : page.metrics) {
          const auto [it, fresh] = by_name.emplace(m.name, r.metrics.size());
          if (fresh) {
            r.metrics.push_back(m);
          } else {
            r.metrics[it->second] = m;
          }
        }
        return page.metrics.size();
      });
  return r;
}

Client::TraceDumpResult Client::trace_dump() {
  TraceDumpResult r;
  // Rings churn between pages; the server pages newest-first over a fresh
  // harvest each time, so drift repeats records rather than skipping them.
  r.status = page_through<TraceDumpRespBody>(
      MsgType::kTraceDump, [&](const TraceDumpRespBody& page) {
        r.realtime_offset_ns = page.realtime_offset_ns;
        r.records.insert(r.records.end(), page.records.begin(),
                         page.records.end());
        return page.records.size();
      });
  if (r.status != Status::kOk) return r;
  // Merge onto the timeline: sort oldest-first and drop the exact
  // duplicates the page overlap produced.
  const auto as_tuple = [](const obs::TraceRecord& t) {
    return std::make_tuple(t.ts_ns, t.thread, static_cast<std::uint8_t>(t.ev),
                           t.a, t.b, t.trace_lo, t.trace_hi);
  };
  std::sort(r.records.begin(), r.records.end(),
            [&](const obs::TraceRecord& x, const obs::TraceRecord& y) {
              return as_tuple(x) < as_tuple(y);
            });
  r.records.erase(
      std::unique(r.records.begin(), r.records.end(),
                  [&](const obs::TraceRecord& x, const obs::TraceRecord& y) {
                    return as_tuple(x) == as_tuple(y);
                  }),
      r.records.end());
  return r;
}

Client::HealthResult Client::health() {
  Response f = call(MsgType::kHealth, std::nullopt);
  HealthResult r;
  r.status = f.header.status;
  if (f.header.status != Status::kOk) return r;
  HealthRespBody& b = std::get<HealthRespBody>(f.body);
  r.overall = b.overall;
  r.ticks = b.ticks;
  r.rules_total = b.rules_total;
  r.firing = std::move(b.firing);
  return r;
}

Client::MetricsWatchResult Client::metrics_watch() {
  const Response f = call(MsgType::kMetricsWatch, std::nullopt);
  MetricsWatchResult r;
  r.status = f.header.status;
  if (f.header.status != Status::kOk) return r;
  r.period_ms = std::get<MetricsWatchRespBody>(f.body).period_ms;
  metrics_watched_ = true;
  return r;
}

std::optional<Client::Event> Client::next_event(int timeout_ms) {
  if (events_.empty() && fd_ < 0) throw NetError("not connected");
  return pop_when_ready(events_, timeout_ms);
}

ReadRouter::ReadRouter(std::vector<Endpoint> endpoints)
    : endpoints_(std::move(endpoints)), clients_(endpoints_.size()) {
  if (endpoints_.empty()) throw NetError("ReadRouter needs >= 1 endpoint");
}

Client::ReadResult ReadRouter::read(svc::GroupId gid, std::uint64_t key,
                                    int response_timeout_ms) {
  // Two full rotations: one so every endpoint gets a try, a second so a
  // refusal caused by a view mid-change (failover) can resolve. The
  // session floor rides every attempt, so whichever endpoint answers
  // proves at least everything this session has already observed.
  Client::ReadResult last;
  last.status = Status::kOverloaded;
  std::string last_error = "no endpoint reachable";
  bool answered_refusal = false;
  const std::size_t attempts = endpoints_.size() * 2;
  for (std::size_t i = 0; i < attempts; ++i) {
    const std::size_t at = next_;
    next_ = (next_ + 1) % endpoints_.size();
    try {
      if (!clients_[at]) clients_[at] = std::make_unique<Client>();
      if (!clients_[at]->connected()) {
        clients_[at]->connect(endpoints_[at].host, endpoints_[at].port,
                              response_timeout_ms);
      }
      const Client::ReadResult r =
          clients_[at]->read(gid, key, floor_, response_timeout_ms);
      if (r.commit_index > floor_) floor_ = r.commit_index;
      if (r.ok()) return r;
      // A refusal (kNotLeader, kOverloaded, kUnknownGroup...) is an
      // answer — remember it and rotate on.
      last = r;
      answered_refusal = true;
    } catch (const NetError& e) {
      last_error = e.what();
      if (clients_[at]) clients_[at]->close();
    }
  }
  if (!answered_refusal) {
    throw NetError("ReadRouter: every endpoint failed: " + last_error);
  }
  return last;
}

}  // namespace omega::net
