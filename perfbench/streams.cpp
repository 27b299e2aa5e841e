#include "streams.h"

#include "cluster.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

using omega::net::Client;
using omega::net::NetError;
using omega::net::Status;

int g_open = 0;
int g_open_max = 0;

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Times `f` into `t` when spans are on.
template <typename F>
auto timed(bool on, SpanTotals& t, F&& f) {
  if (!on) return f();
  const std::int64_t t0 = now_ns();
  auto r = f();
  t.ns += static_cast<double>(now_ns() - t0);
  ++t.n;
  return r;
}

std::int64_t due_at(std::int64_t start, double rate, std::uint64_t k) {
  return start + static_cast<std::int64_t>(static_cast<double>(k) * 1e9 / rate);
}

}  // namespace

int max_open_conns() { return g_open_max; }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool polled_ready(const std::vector<pollfd>& fds, int fd) {
  for (const pollfd& p : fds) {
    if (p.fd == fd) return (p.revents & (POLLIN | POLLERR | POLLHUP)) != 0;
  }
  return false;
}

// ------------------------------------------------------------------ Link ---

void Link::open(std::uint32_t node, std::uint16_t port, int timeout_ms) {
  close();
  if (g_open >= kMaxConns) {
    throw std::logic_error("load generator exceeded its connection budget");
  }
  ++g_open;
  g_open_max = std::max(g_open_max, g_open);
  counted_ = true;
  try {
    client_.connect("127.0.0.1", port, timeout_ms);
  } catch (...) {
    close();
    throw;
  }
  node_ = node;
}

void Link::close() {
  client_.close();
  if (counted_) --g_open;
  counted_ = false;
}

// ----------------------------------------------------------- CommandDeck ---

CommandDeck::CommandDeck(std::uint64_t seed) : state_(seed ^ 0xC0FFEEULL) {
  deck_.resize(kCmdMax);
  std::iota(deck_.begin(), deck_.end(), 1);
  shuffle();
}

void CommandDeck::shuffle() {
  for (std::size_t i = deck_.size() - 1; i > 0; --i) {
    std::swap(deck_[i], deck_[splitmix(state_) % (i + 1)]);
  }
  pos_ = 0;
}

std::uint64_t CommandDeck::next() {
  if (pos_ == deck_.size()) {
    wrapped_ = true;
    shuffle();
  }
  return deck_[pos_++];
}

bool LogBook::record(const Acked& a) {
  if (!keys_seen.insert(a.client * 0x9E3779B97F4A7C15ULL + a.seq).second) {
    return false;
  }
  acked.push_back(a);
  std::uint64_t& f = floor[a.cmd];
  f = std::max(f, a.index + 1);
  if (a.ack_ns >= last.ack_ns) last = a;
  return true;
}

// ---------------------------------------------------------- AppendStream ---

AppendStream::AppendStream(std::vector<Link*> links, std::uint64_t client_base,
                           CommandDeck& deck, LogBook& book, Spans& spans)
    : links_(std::move(links)),
      pending_(links_.size()),
      client_base_(client_base),
      next_seq_(links_.size(), 1),
      deck_(deck),
      book_(book),
      spans_(spans) {}

void AppendStream::connect(std::uint32_t node, std::uint16_t port) {
  close_settled();
  for (Link* l : links_) l->open(node, port);
  lost_leader_ = false;
  hint_ = omega::kNoProcess;
  resubmit();
}

void AppendStream::resubmit() {
  // Each request goes back on its client's own link, oldest seq first: a
  // client's older seq arriving after a newer one is refused as stale.
  std::vector<Request> again;
  again.swap(wait_);
  std::sort(again.begin(), again.end(), [](const Request& a, const Request& b) {
    return a.client != b.client ? a.client < b.client : a.seq < b.seq;
  });
  for (Request& r : again) submit(r.client - client_base_, r);
}

void AppendStream::close_settled() {
  // Requests in flight at a live node are answered (often kNotLeader,
  // which makes them safe to resubmit): collect those answers first.
  const std::int64_t deadline = now_ns() + 500'000'000;
  while (in_flight() > 0 && connected() && now_ns() < deadline) {
    std::vector<pollfd> fds;
    add_pollfds(fds);
    ::poll(fds.data(), fds.size(), 5);
    harvest(now_ns(), fds);
  }
  disconnect();
}

void AppendStream::disconnect() {
  for (std::size_t i = 0; i < links_.size(); ++i) fail_link(i);
  lost_leader_ = false;
}

bool AppendStream::connected() const {
  for (const Link* l : links_) {
    if (!l->is_open()) return false;
  }
  return !links_.empty();
}

void AppendStream::set_rate(double per_s, std::int64_t start_ns) {
  rate_ = per_s;
  start_ns_ = start_ns;
  issued_ = 0;
}

std::int64_t AppendStream::next_due() const {
  if (rate_ <= 0) return INT64_MAX;
  return due_at(start_ns_, rate_, issued_);
}

void AppendStream::submit(std::size_t link, Request req) {
  Client& c = links_[link]->client();
  try {
    const std::uint64_t id = timed(spans_.on, spans_.send, [&] {
      return c.append_async(kGid, req.client, req.seq, req.cmd);
    });
    req.trace = c.last_trace_id();
    if (sink.late_us != nullptr) {
      sink.late_us->push_back(static_cast<double>(now_ns() - req.due_ns) / 1e3);
    }
    pending_[link].emplace(id, Pending{req});
    ++submitted_;
  } catch (const NetError&) {
    wait_.push_back(req);
    fail_link(link);
  }
}

void AppendStream::fail_link(std::size_t link) {
  for (const auto& [id, p] : pending_[link]) {
    book_.indeterminate.push_back(p.req.cmd);
    ++indeterminate_;
  }
  pending_[link].clear();
  links_[link]->close();
  lost_leader_ = true;
}

void AppendStream::pump(std::int64_t now) {
  const bool ready = connected() && !lost_leader_;
  if (ready && !wait_.empty()) resubmit();
  auto fresh = [&](std::size_t link, std::int64_t due) {
    Request r;
    r.client = client_base_ + link;
    r.seq = next_seq_[link]++;
    r.cmd = next_cmd ? next_cmd() : deck_.next();
    r.due_ns = due;
    return r;
  };
  if (closed_) {
    if (!ready) return;
    for (std::size_t i = 0; i < links_.size(); ++i) {
      if (pending_[i].empty() && links_[i]->is_open()) {
        submit(i, fresh(i, now));
      }
    }
    return;
  }
  if (rate_ <= 0) return;
  for (std::int64_t due = next_due(); due <= now; due = next_due()) {
    ++issued_;
    const std::size_t i = issued_ % links_.size();
    Request r = fresh(i, due);
    if (ready && links_[i]->is_open()) {
      submit(i, r);
    } else {
      wait_.push_back(r);
    }
  }
}

void AppendStream::add_pollfds(std::vector<pollfd>& fds) const {
  for (const Link* l : links_) {
    if (l->is_open()) fds.push_back(pollfd{l->fd(), POLLIN, 0});
  }
}

void AppendStream::harvest(std::int64_t now,
                           const std::vector<pollfd>& ready) {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (!links_[i]->is_open() || pending_[i].empty()) continue;
    if (!polled_ready(ready, links_[i]->fd())) continue;
    Client& c = links_[i]->client();
    for (;;) {
      std::optional<Client::AsyncAppend> a;
      try {
        a = timed(spans_.on, spans_.recv,
                  [&] { return c.next_append_result(0); });
      } catch (const NetError&) {
        fail_link(i);
        break;
      }
      if (!a.has_value()) break;
      const auto it = pending_[i].find(a->req_id);
      if (it == pending_[i].end()) continue;
      const Request req = it->second.req;
      pending_[i].erase(it);
      const Status st = a->result.status;
      if (st == Status::kOk) {
        const Acked ack{req.client, req.seq, req.cmd, a->result.index, now};
        if (!book_.record(ack)) {
          ++duplicates_;
          continue;
        }
        ++spans_.ops;
        const double lat_ns = static_cast<double>(now - req.due_ns);
        if (sink.latency_ms != nullptr) sink.latency_ms->push_back(lat_ns / 1e6);
        if (trace_latency != nullptr && req.trace != 0) {
          (*trace_latency)[req.trace] = lat_ns;
        }
        if (on_ack) on_ack(req, ack);
      } else if (st == Status::kNotLeader) {
        wait_.push_back(req);
        lost_leader_ = true;
        hint_ = a->result.view.leader;
      } else {
        ++failed_;
        last_error_ = st;
      }
    }
  }
}

std::size_t AppendStream::in_flight() const {
  std::size_t n = 0;
  for (const auto& p : pending_) n += p.size();
  return n;
}

// ------------------------------------------------------------ ReadStream ---

ReadStream::ReadStream(std::vector<Link*> links, std::uint64_t seed,
                       LogBook& book, Spans& spans)
    : links_(std::move(links)),
      pending_(links_.size()),
      seen_(links_.size()),
      rng_(seed ^ 0x5EADULL),
      book_(book),
      spans_(spans) {}

void ReadStream::set_rate(double per_s, std::int64_t start_ns) {
  plain_ = Schedule{per_s, start_ns, 0};
}

void ReadStream::set_fence_rate(double per_s, std::int64_t start_ns) {
  fenced_ = Schedule{per_s, start_ns, 0};
}

std::int64_t ReadStream::Schedule::next_due() const {
  return rate > 0 ? due_at(start_ns, rate, issued) : INT64_MAX;
}

void ReadStream::connect(std::size_t i, std::uint32_t node,
                         std::uint16_t port) {
  disconnect(i);
  links_[i]->open(node, port);
}

void ReadStream::disconnect(std::size_t i) {
  for (auto& [id, r] : pending_[i]) wait_.push_back(r);
  pending_[i].clear();
  // Session order holds per connection; a new connection starts afresh.
  seen_[i].clear();
  links_[i]->close();
}

void ReadStream::fail_link(std::size_t i) { disconnect(i); }

std::int64_t ReadStream::next_due() const {
  return std::min(plain_.next_due(), fenced_.next_due());
}

ReadStream::Request ReadStream::make(std::int64_t due, bool fenced) {
  Request r;
  r.due_ns = due;
  if (fenced && book_.last.cmd != 0) {
    // Read-your-writes: the newest acknowledged append must be visible.
    r.key = book_.last.cmd;
    r.min_index = book_.last.index + 1;
  } else if (pool_ != nullptr && !pool_->empty()) {
    r.key = (*pool_)[splitmix(rng_) % pool_->size()];
  } else {
    r.key = 1;
  }
  const auto f = book_.floor.find(r.key);
  r.floor = f == book_.floor.end() ? 0 : f->second;
  return r;
}

void ReadStream::submit(std::size_t i, Request req) {
  Client& c = links_[i]->client();
  try {
    const std::uint64_t id = timed(spans_.on, spans_.send, [&] {
      return c.read_async(kGid, req.key, req.min_index);
    });
    if (late_us != nullptr && req.min_index == 0) {
      late_us->push_back(static_cast<double>(now_ns() - req.due_ns) / 1e3);
    }
    pending_[i].emplace(id, req);
  } catch (const NetError&) {
    wait_.push_back(req);
    fail_link(i);
  }
}

void ReadStream::pump(std::int64_t now) {
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (links_[i]->is_open()) open.push_back(i);
  }
  // Due open-loop reads go round-robin over the open links, or wait.
  auto issue_due = [&](Schedule& sched, bool fenced) {
    for (std::int64_t due = sched.next_due(); due <= now;
         due = sched.next_due()) {
      ++sched.issued;
      if (open.empty()) {
        wait_.push_back(make(due, fenced));
      } else {
        submit(open[rr_++ % open.size()], make(due, fenced));
      }
    }
  };
  if (!open.empty() && !wait_.empty() && now >= retry_at_) {
    std::vector<Request> again;
    again.swap(wait_);
    for (Request& r : again) submit(open[rr_++ % open.size()], r);
  }
  issue_due(plain_, false);
  issue_due(fenced_, true);
}

void ReadStream::add_pollfds(std::vector<pollfd>& fds) const {
  for (const Link* l : links_) {
    if (l->is_open()) fds.push_back(pollfd{l->fd(), POLLIN, 0});
  }
}

void ReadStream::check(std::size_t i, const Request& req,
                       const Client::ReadResult& r) {
  const bool linearizable =
      r.status == Status::kLeaseRead || r.status == Status::kOk;
  auto stale = [&](const char* why) {
    if (stale_++ == 0) {
      stale_note_ = std::string(why) + ": key " + std::to_string(req.key) +
                    " index " + std::to_string(r.index) + " floor " +
                    std::to_string(req.floor) + " min_index " +
                    std::to_string(req.min_index) + " status " +
                    std::to_string(static_cast<int>(r.status));
    }
  };
  std::uint64_t& seen = seen_[i][req.key];
  if (r.index < seen) stale("index went backwards on one connection");
  seen = std::max(seen, r.index);
  if (req.min_index > 0 && r.index < req.min_index) {
    stale("min_index fence not respected");
  } else if ((req.min_index > 0 || linearizable) && r.index < req.floor) {
    stale("acknowledged append not visible");
  }
  if (r.index > 0) answers_.insert((req.key << 32) | r.index);
}

void ReadStream::harvest(std::int64_t now, const std::vector<pollfd>& ready) {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (!links_[i]->is_open() || pending_[i].empty()) continue;
    if (!polled_ready(ready, links_[i]->fd())) continue;
    Client& c = links_[i]->client();
    for (;;) {
      std::optional<Client::AsyncRead> a;
      try {
        a = timed(spans_.on, spans_.recv,
                  [&] { return c.next_read_result(0); });
      } catch (const NetError&) {
        fail_link(i);
        break;
      }
      if (!a.has_value()) break;
      const auto it = pending_[i].find(a->req_id);
      if (it == pending_[i].end()) continue;
      const Request req = it->second;
      pending_[i].erase(it);
      const Client::ReadResult& r = a->result;
      switch (r.status) {
        case Status::kLeaseRead: ++tally_.lease; break;
        case Status::kIndexRead: ++tally_.index; break;
        case Status::kOk: ++tally_.fallback; break;
        case Status::kNotLeader: ++tally_.refused; break;
        case Status::kOverloaded: ++tally_.overloaded; break;
        default: ++tally_.other; break;
      }
      if (!r.ok()) {
        // Refused or fence timed out: ask again (reads are idempotent).
        if (r.status == Status::kNotLeader ||
            r.status == Status::kOverloaded) {
          wait_.push_back(req);
          retry_at_ = now + 5000000;  // 5 ms
        }
        continue;
      }
      check(i, req, r);
      ++spans_.ops;
      if (req.min_index == 0) ++plain_answered_;
      if (measuring) {
        const double us = static_cast<double>(now - req.due_ns) / 1e3;
        std::vector<double>* sink =
            req.min_index > 0 ? fence_latency_us : latency_us;
        if (sink != nullptr) sink->push_back(us);
      }
    }
  }
}

std::size_t ReadStream::in_flight() const {
  std::size_t n = 0;
  for (const auto& p : pending_) n += p.size();
  return n;
}

// ------------------------------------------------------- leader finding ---

omega::ProcessId find_leader(const Cluster& cl, Link& ctl, double timeout_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (now_ns() < deadline) {
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      if (!cl.alive(n)) continue;
      try {
        ctl.open(n, cl.port(n), 200);
        const Client::Result r = ctl.client().leader(kGid);
        ctl.close();
        if (r.ok() && r.view.leader != omega::kNoProcess &&
            cl.alive(cl.node_of(r.view.leader))) {
          return r.view.leader;
        }
      } catch (const NetError&) {
        ctl.close();
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return omega::kNoProcess;
}

std::optional<std::uint32_t> follow_leader(AppendStream& s, const Cluster& cl,
                                           Link& ctl, double timeout_s) {
  s.close_settled();
  omega::ProcessId leader = s.hint();
  if (leader == omega::kNoProcess || !cl.alive(cl.node_of(leader))) {
    leader = find_leader(cl, ctl, timeout_s);
  }
  if (leader == omega::kNoProcess) return std::nullopt;
  const std::uint32_t node = cl.node_of(leader);
  try {
    s.connect(node, cl.port(node));
  } catch (const NetError&) {
    s.disconnect();
    return std::nullopt;
  }
  return node;
}

}  // namespace perfbench
