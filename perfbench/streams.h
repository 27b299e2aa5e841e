// The load generator's client side: every connection it holds is a Link,
// counted against a fixed budget, and all of them are driven from one
// poll loop. AppendStream and ReadStream own the requests in flight on
// their links and check every answer as it arrives.
#pragma once

#include <poll.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/client.h"

namespace perfbench {

class Cluster;

/// The generator never holds more connections than this (the 4 cores of
/// the reference box); opening one more is a bug in the benchmark.
inline constexpr int kMaxConns = 4;

/// The most connections the generator ever held at once.
int max_open_conns();

std::int64_t now_ns();

/// Whether `fd` polled readable (or hung up) in `fds`.
bool polled_ready(const std::vector<pollfd>& fds, int fd);

/// Sum and count of one span kind the benchmark records around its own
/// calls into net::Client.
struct SpanTotals {
  double ns = 0;
  std::uint64_t n = 0;
  double mean_us() const { return n > 0 ? ns / 1e3 / static_cast<double>(n) : 0; }
};

struct Spans {
  bool on = false;
  SpanTotals send;  ///< append_async / read_async
  SpanTotals recv;  ///< next_append_result / next_read_result
  std::uint64_t ops = 0;  ///< operations answered, spans on or off
};

/// One budgeted client connection to a node.
class Link {
 public:
  Link() = default;
  ~Link() { close(); }
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Connects to `node` on `port` (throws net::NetError on failure).
  void open(std::uint32_t node, std::uint16_t port, int timeout_ms = 1000);
  void close();
  bool is_open() const { return counted_ && client_.connected(); }
  int fd() const { return client_.native_handle(); }
  std::uint32_t node() const { return node_; }
  omega::net::Client& client() { return client_; }

 private:
  omega::net::Client client_;
  std::uint32_t node_ = ~0u;
  bool counted_ = false;
};

/// The commands the run appends: a seed-shuffled deck of [1, kCmdMax],
/// so commands are distinct until the deck runs out.
class CommandDeck {
 public:
  static constexpr std::uint64_t kCmdMax = 65000;
  explicit CommandDeck(std::uint64_t seed);
  std::uint64_t next();
  bool wrapped() const { return wrapped_; }

 private:
  void shuffle();
  std::uint64_t state_;
  std::vector<std::uint64_t> deck_;
  std::size_t pos_ = 0;
  bool wrapped_ = false;
};

/// An acknowledged append: its dedup key, command and 0-based position.
struct Acked {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  std::uint64_t cmd = 0;
  std::uint64_t index = 0;
  std::int64_t ack_ns = 0;
};

/// What the generator knows about the log: every acknowledged append and,
/// per command, the highest acknowledged position + 1 (the floor a
/// linearizable read of that key must reach).
struct LogBook {
  std::vector<Acked> acked;
  std::unordered_map<std::uint64_t, std::uint64_t> floor;
  std::unordered_set<std::uint64_t> keys_seen;  ///< hashed (client, seq)
  Acked last;                                   ///< newest acknowledgement
  /// Commands whose request was in flight on a connection that broke: the
  /// log may hold each at most once.
  std::vector<std::uint64_t> indeterminate;

  /// Records an acknowledgement; false if this dedup key was already
  /// acknowledged (a duplicate ack is a correctness failure).
  bool record(const Acked& a);
};

/// Per-request latency sinks of the current measurement window.
struct Sink {
  std::vector<double>* latency_ms = nullptr;  ///< ack - due
  std::vector<double>* late_us = nullptr;     ///< sent - due
};

/// Appends over one or more links to the leader's node. Requests are due
/// on a schedule (open loop) or one per link after each answer (closed
/// loop); latency counts from when a request was due. A request answered
/// kNotLeader, or due while no link is open, waits and is submitted to
/// the next leader. A request in flight on a link that breaks is not
/// resubmitted: its fate is unknown, and the dedup sessions live only in
/// the node that took the request, so a copy sent to the next leader
/// could commit twice. It counts as failed (indeterminate) and the log
/// may hold it at most once.
class AppendStream {
 public:
  struct Request {
    std::uint64_t client = 0;
    std::uint64_t seq = 0;
    std::uint64_t cmd = 0;
    std::int64_t due_ns = 0;
    std::uint64_t trace = 0;
  };

  AppendStream(std::vector<Link*> links, std::uint64_t client_base,
               CommandDeck& deck, LogBook& book, Spans& spans);

  /// Opens every link to `node` and resubmits what waits (after
  /// close_settled()).
  void connect(std::uint32_t node, std::uint16_t port);
  /// Collects the answers to requests in flight on live links (for up to
  /// 0.5 s; a kNotLeader answer makes a request safe to resubmit), then
  /// closes every link.
  void close_settled();
  /// Closes every link; requests still in flight become indeterminate.
  void disconnect();
  bool connected() const;

  /// Open loop: `per_s` requests per second from `start_ns` on; 0 stops.
  void set_rate(double per_s, std::int64_t start_ns);
  /// Closed loop: one request in flight per link, the next due when the
  /// previous is answered.
  void set_closed(bool on) { closed_ = on; }

  /// Submits every request due by `now` (queues them while disconnected).
  void pump(std::int64_t now);
  /// Next due time of the open-loop schedule (INT64_MAX when idle).
  std::int64_t next_due() const;

  void add_pollfds(std::vector<pollfd>& fds) const;
  /// Harvests answers on the links `ready` reports readable (the result
  /// of a poll over add_pollfds). Throws nothing: a broken connection
  /// is folded into fail_link().
  void harvest(std::int64_t now, const std::vector<pollfd>& ready);

  std::size_t in_flight() const;
  std::size_t waiting() const { return wait_.size(); }
  /// Requests whose answer was an error other than kNotLeader, plus the
  /// indeterminate ones.
  std::uint64_t failed() const { return failed_ + indeterminate_; }
  std::uint64_t indeterminate() const { return indeterminate_; }
  /// Status of the most recent such error.
  omega::net::Status last_error() const { return last_error_; }
  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t duplicates() const { return duplicates_; }
  /// Set when a kNotLeader answer or a broken link asks the driver to
  /// find the leader again.
  bool lost_leader() const { return lost_leader_; }
  /// The leader hint of the last kNotLeader answer (kNoProcess if none).
  omega::ProcessId hint() const { return hint_; }

  Sink sink;
  /// Command source of new requests (default: the run's deck).
  std::function<std::uint64_t()> next_cmd;
  /// Invoked for every acknowledgement after it is recorded.
  std::function<void(const Request&, const Acked&)> on_ack;
  /// When set, trace id -> ack latency (ns) of every acknowledgement.
  std::unordered_map<std::uint64_t, double>* trace_latency = nullptr;

 private:
  struct Pending {
    Request req;
  };
  void submit(std::size_t link, Request req);
  void resubmit();
  void fail_link(std::size_t link);

  std::vector<Link*> links_;
  std::vector<std::unordered_map<std::uint64_t, Pending>> pending_;
  std::vector<Request> wait_;
  std::uint64_t client_base_;
  std::vector<std::uint64_t> next_seq_;
  CommandDeck& deck_;
  LogBook& book_;
  Spans& spans_;
  double rate_ = 0;
  std::int64_t start_ns_ = 0;
  std::uint64_t issued_ = 0;  ///< open-loop requests made since set_rate
  bool closed_ = false;
  std::uint64_t failed_ = 0;
  std::uint64_t indeterminate_ = 0;
  omega::net::Status last_error_ = omega::net::Status::kOk;
  std::uint64_t submitted_ = 0;
  std::uint64_t duplicates_ = 0;
  bool lost_leader_ = false;
  omega::ProcessId hint_ = omega::kNoProcess;
};

/// Point reads over one or more links, each to its own node, open loop:
/// plain reads at one rate and fenced reads (read-your-writes: min_index
/// = the newest acknowledged append's position + 1, on that append's key)
/// at another, so reads parked on a fence never hold up the plain reads.
/// Due reads go round-robin over the open links. Every answer is checked:
/// per link and key the returned index never moves backwards; a fenced
/// read and any lease or committed read reach the key's acknowledged
/// floor at send time. Refusals and broken links are retried, so a read
/// only fails if the run ends first.
class ReadStream {
 public:
  struct Tally {
    std::uint64_t lease = 0, index = 0, fallback = 0, refused = 0,
                  overloaded = 0, other = 0;
    std::uint64_t answered() const { return lease + index + fallback; }
  };

  ReadStream(std::vector<Link*> links, std::uint64_t seed, LogBook& book,
             Spans& spans);

  /// Keys reads are drawn from (the acknowledged commands).
  void set_pool(const std::vector<std::uint64_t>* pool) { pool_ = pool; }
  /// Plain reads: `per_s` per second from `start_ns` on (0: off).
  void set_rate(double per_s, std::int64_t start_ns);
  /// Fenced reads: `per_s` per second from `start_ns` on (0: off).
  void set_fence_rate(double per_s, std::int64_t start_ns);

  /// (Re)opens link `i` to `node`; waiting reads resume there.
  void connect(std::size_t i, std::uint32_t node, std::uint16_t port);
  void disconnect(std::size_t i);
  std::size_t links() const { return links_.size(); }

  void pump(std::int64_t now);
  std::int64_t next_due() const;
  void add_pollfds(std::vector<pollfd>& fds) const;
  void harvest(std::int64_t now, const std::vector<pollfd>& ready);

  std::size_t in_flight() const;
  std::size_t waiting() const { return wait_.size(); }
  /// Answers by status, plain and fenced reads together.
  const Tally& tally() const { return tally_; }
  /// Plain reads answered.
  std::uint64_t plain_answered() const { return plain_answered_; }
  std::uint64_t stale() const { return stale_; }
  /// A note on the first stale answer, for the failure report.
  const std::string& stale_note() const { return stale_note_; }
  /// Distinct (key, index > 0) answers, to verify against the final log.
  const std::unordered_set<std::uint64_t>& answers() const { return answers_; }

  std::vector<double>* latency_us = nullptr;        ///< plain reads
  std::vector<double>* fence_latency_us = nullptr;  ///< fenced reads
  std::vector<double>* late_us = nullptr;  ///< plain reads: sent - due
  bool measuring = true;  ///< false: answers are checked, not timed

 private:
  struct Request {
    std::uint64_t key = 0;
    std::uint64_t min_index = 0;
    std::uint64_t floor = 0;
    std::int64_t due_ns = 0;
  };
  /// A schedule of open-loop requests.
  struct Schedule {
    double rate = 0;
    std::int64_t start_ns = 0;
    std::uint64_t issued = 0;
    std::int64_t next_due() const;
  };
  Request make(std::int64_t due, bool fenced);
  void submit(std::size_t link, Request req);
  void fail_link(std::size_t link);
  void check(std::size_t link, const Request& req,
             const omega::net::Client::ReadResult& r);

  std::vector<Link*> links_;
  std::vector<std::unordered_map<std::uint64_t, Request>> pending_;
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> seen_;
  std::vector<Request> wait_;
  std::int64_t retry_at_ = 0;  ///< refused reads wait until then
  std::uint64_t rng_;
  LogBook& book_;
  Spans& spans_;
  const std::vector<std::uint64_t>* pool_ = nullptr;
  Schedule plain_, fenced_;
  std::size_t rr_ = 0;
  Tally tally_;
  std::uint64_t plain_answered_ = 0;
  std::uint64_t stale_ = 0;
  std::string stale_note_;
  std::unordered_set<std::uint64_t> answers_;
};

/// Asks the live nodes of `cl`, over `ctl`, until one names a live
/// leader or `timeout_s` passes (then kNoProcess).
omega::ProcessId find_leader(const Cluster& cl, Link& ctl, double timeout_s);

/// Points `s` at the leader again after it lost it. Its links are settled
/// and closed first, so asking around over `ctl` stays within the
/// connection budget. Follows the leader named by the last kNotLeader
/// answer when that node is alive, else asks the live nodes for up to
/// `timeout_s`. Returns the leader's node, or nullopt (and `s` stays
/// closed) when none was found.
std::optional<std::uint32_t> follow_leader(AppendStream& s, const Cluster& cl,
                                           Link& ctl, double timeout_s);

}  // namespace perfbench
