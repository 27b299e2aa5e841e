// Wire protocol of the serving front-end (src/net): length-prefixed
// binary frames over TCP.
//
//   frame    := u32 payload_len | payload          (payload <= 4096 bytes)
//   payload  := header | body
//   header   := u8 magic (0xA9) | u8 version (2) | u8 type | u8 status
//               | u64 req_id
//
// All integers are little-endian. `req_id` is chosen by the requester and
// echoed in the matching response; pushes carry req_id 0. `status` is 0 in
// requests and a Status code in responses.
//
// The role is not on the wire: every decode site knows its side. Servers
// and the mirror acceptor call decode_request; clients and the mirror
// dialler call decode_response. Each (type, role) has exactly one layout,
// for every status — error answers carry the full body, zero-filled — and
// a body of any other length is kBadBody. Unknown types decode header-only
// so a server can answer kUnsupported.
//
// Bodies (v2; fields u64 unless sized, `-` = empty, n = record count):
//   type              request                     response / push
//   LEADER        1   gid                         view
//   WATCH         2   gid                         view (the snapshot)
//   UNWATCH       3   gid                         gid
//   PING          4   -                           -
//   (5 is reserved: the retired STATS frame)
//   EVENT         6                               push: view
//   APPEND        7   gid client seq command      gid index u32:leader
//                     trace                       epoch trace
//   READ_LOG      8   gid from u32:max            gid commit_index u32:n
//                                                 | n × u64 entry
//   COMMIT_WATCH  9   gid                         gid commit_index
//   COMMIT_UNWATCH 10 gid                         gid
//   COMMIT_EVENT 11                               push: gid index value trace
//   REG_HELLO    12   u32:node                    u32:node (the acceptor's)
//   REG_PUSH     13   one-way: gid seq u32:n | n × (u32:cell u64:value)
//   REG_ACK      14                               one-way: seq
//   SESSION_OPEN 15   gid client                  gid ttl_us
//   METRICS      16   u32:start                   u32:total u32:start u32:n
//                                                 | n × metric | u32:node
//   TRACE_DUMP   17   u32:start                   u32:total u32:start
//                                                 i64:realtime_offset_ns
//                                                 u32:n | n × trace record
//   HEALTH       18   -                           u8:overall ticks
//                                                 u8:rules_total u8:n
//                                                 | n × rule
//   METRICS_WATCH 19  -                           u32:period_ms
//   METRICS_EVENT 20                              push: tick u8:health
//                                                 u32:total u32:start u32:n
//                                                 | n × metric
//   READ         21   gid key min_index           gid key index commit_index
//                                                 u32:leader epoch
//
//   view    := gid | u32 leader | epoch
//   metric  := u8 kind (0 counter, 1 gauge, 2 histogram) | u8 name_len
//              | name | i64 value (histogram: sample count) | sum
//              | u8 nbuckets | nbuckets × (u8 bucket | u64 count)
//   trace record := ts_ns | u32 thread | u8 event | a | b | trace_lo
//              | trace_hi (45 bytes)
//   rule    := u8 status | u8 name_len | name | u8 reason_len | reason
//
// Semantics worth knowing at the wire:
//   * `leader` is a ProcessId, kNoProcess (0xffffffff) = no agreed leader.
//     `epoch` is the fencing token: it grows on every change of the
//     group's agreed view. kNotLeader answers carry leader/epoch as the
//     redirect hint.
//   * APPEND `trace` is the client-minted trace id, echoed on the answer
//     and on the entry's COMMIT_EVENT (0 = untraced).
//   * REG_PUSH frames are FIFO per stream and `seq` counts them from 1;
//     REG_ACK is cumulative (every push up to `seq` is applied).
//   * SESSION_OPEN (re)opens the client's dedup session; ttl_us 0 means
//     sessions never expire. Appends after a TTL eviction answer
//     kSessionEvicted until the client re-opens.
//   * METRICS and TRACE_DUMP page: the client re-requests from
//     start + n until total is covered. Histogram buckets are sparse
//     (bucket b covers [2^(b-1), 2^b - 1], bucket 0 is {0}). Trace pages
//     are newest-first over a fresh snapshot per request, so ring churn
//     repeats records instead of skipping them; wall time = ts_ns +
//     realtime_offset_ns. `node` names the answering node (kNoNodeId).
//   * HEALTH carries only firing (non-ok) rules; overall/status are
//     obs::Health values. HEALTH, METRICS_WATCH answer kUnsupported when
//     the server runs no sampler. METRICS_WATCH subscribes the connection
//     to METRICS_EVENT pushes; one sampler tick is ceil(total / per-page)
//     pushes sharing `tick`.
//   * READ `index` is the key's latest applied position plus one (0 =
//     never applied). The status names the answering path: kLeaseRead
//     (leader, valid lease), kIndexRead (follower past the fence), kOk
//     (leader fallback), kNotLeader (refused; fields are a hint only).
//     `min_index` floors a follower's fence for read-your-writes.
//
// Versioning: any change to a layout bumps kVersion; a peer speaking
// another version fails at the header (kBadMagic) instead of misparsing.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace omega::net {

inline constexpr std::uint8_t kMagic = 0xA9;
inline constexpr std::uint8_t kVersion = 2;

/// Hard cap on a frame's payload; bodies are small, so anything larger is
/// garbage or an attack, not a message.
inline constexpr std::uint32_t kMaxPayloadBytes = 4096;

/// Bytes of the fixed header inside the payload.
inline constexpr std::size_t kHeaderBytes = 1 + 1 + 1 + 1 + 8;

enum class MsgType : std::uint8_t {
  kLeader = 1,          ///< point query: who leads group G?
  kWatch = 2,           ///< subscribe to G's epoch changes
  kUnwatch = 3,         ///< drop the subscription
  kPing = 4,            ///< liveness / RTT probe
  kEvent = 6,           ///< server push: G's agreed view changed
  kAppend = 7,          ///< append a command to G's replicated log
  kReadLog = 8,         ///< page of applied log entries
  kCommitWatch = 9,     ///< subscribe to G's commit pushes
  kCommitUnwatch = 10,  ///< drop the commit subscription
  kCommitEvent = 11,    ///< server push: an entry of G's log was applied
  kRegHello = 12,       ///< open a register push stream
  kRegPush = 13,        ///< pushed register updates, FIFO per stream
  kRegAck = 14,         ///< cumulative apply acknowledgement
  kSessionOpen = 15,    ///< (re)open a dedup session
  kMetrics = 16,        ///< paged scrape of the obs metric registry
  kTraceDump = 17,      ///< paged scrape of the flight recorder
  kHealth = 18,         ///< health verdict + firing rules
  kMetricsWatch = 19,   ///< subscribe to per-tick metric pushes
  kMetricsEvent = 20,   ///< server push: one page of a sampler tick
  kRead = 21,           ///< point read of a key's applied position
};

enum class Status : std::uint8_t {
  kOk = 0,
  kUnknownGroup = 1,    ///< gid not registered with the service
  kBadRequest = 2,      ///< request rejected by the application layer
  kUnsupported = 3,     ///< type unknown to (or not served by) this server
  kNotLeader = 4,       ///< group has no agreed leader; redirect/back off
  kStaleSeq = 5,        ///< append seq older than the client's latest
  kOverloaded = 6,      ///< command intake full; retry later
  kLogFull = 7,         ///< the log's slot capacity is exhausted
  kSessionEvicted = 8,  ///< dedup session expired; SESSION_OPEN to resume
  kLeaseRead = 9,       ///< READ answered under a valid leader lease
  kIndexRead = 10,      ///< READ answered by a follower past the fence
};

struct FrameHeader {
  MsgType type = MsgType::kPing;
  Status status = Status::kOk;
  std::uint64_t req_id = 0;
};

/// Group id on the wire (matches svc::GroupId's representation).
using WireGroupId = std::uint64_t;

/// Requests addressed to one group, and UNWATCH/COMMIT_UNWATCH answers.
struct GidBody {
  WireGroupId gid = 0;
};

/// LEADER/WATCH answers and EVENT pushes.
struct ViewBody {
  WireGroupId gid = 0;
  ProcessId leader = kNoProcess;
  std::uint64_t epoch = 0;
};

struct AppendReqBody {
  WireGroupId gid = 0;
  std::uint64_t client = 0;   ///< dedup-key half 1: client session id
  std::uint64_t seq = 0;      ///< dedup-key half 2: per-client sequence
  std::uint64_t command = 0;  ///< value to append, in [1, 65534]
  std::uint64_t trace = 0;    ///< trace id (0 = untraced)
};

struct AppendRespBody {
  WireGroupId gid = 0;
  std::uint64_t index = 0;        ///< commit position (kOk only)
  ProcessId leader = kNoProcess;  ///< redirect hint (kNotLeader)
  std::uint64_t epoch = 0;
  std::uint64_t trace = 0;        ///< the request's trace id, echoed
};

struct ReadLogReqBody {
  WireGroupId gid = 0;
  std::uint64_t from = 0;  ///< first index wanted
  std::uint32_t max = 0;   ///< page size (server caps at kMaxLogEntries)
};

struct ReadLogRespBody {
  WireGroupId gid = 0;
  std::uint64_t commit_index = 0;
  std::vector<std::uint64_t> entries;
};

/// COMMIT_WATCH answers.
struct CommitSnapshotBody {
  WireGroupId gid = 0;
  std::uint64_t commit_index = 0;
};

/// COMMIT_EVENT pushes.
struct CommitBody {
  WireGroupId gid = 0;
  std::uint64_t index = 0;
  std::uint64_t value = 0;
  std::uint64_t trace = 0;  ///< the append's trace id (0 = untraced)
};

/// Server-side page cap for READ_LOG (the payload cap allows ~500).
inline constexpr std::uint32_t kMaxLogEntries = 256;

/// One pushed register update.
struct RegCellUpdate {
  std::uint32_t cell = 0;
  std::uint64_t value = 0;
};

/// REG_HELLO either way: the sender's node id.
struct RegHelloBody {
  std::uint32_t node = 0;
};

struct RegPushBody {
  WireGroupId gid = 0;
  std::uint64_t seq = 0;  ///< per-stream frame counter, starts at 1
  std::vector<RegCellUpdate> cells;
};

struct RegAckBody {
  std::uint64_t seq = 0;
};

/// Cells per REG_PUSH frame (keeps the frame well inside kMaxPayloadBytes;
/// a flush larger than this is split into several frames).
inline constexpr std::uint32_t kMaxPushCells = 256;

struct SessionOpenReqBody {
  WireGroupId gid = 0;
  std::uint64_t client = 0;
};

struct SessionOpenRespBody {
  WireGroupId gid = 0;
  std::uint64_t ttl_us = 0;  ///< 0 = sessions never expire
};

/// METRICS and TRACE_DUMP requests: index of the first record wanted in
/// the server's scrape order (0 for the first page).
struct PageReqBody {
  std::uint32_t start = 0;
};

/// "This server has no node identity" — the default NetConfig::node_id.
inline constexpr std::uint32_t kNoNodeId = 0xffffffff;

/// One page of the name-sorted METRICS scrape. `metrics` reuses
/// obs::MetricSample verbatim, so server, client and renderers share one
/// record type.
struct MetricsRespBody {
  std::uint32_t total = 0;  ///< metrics in the full scrape
  std::uint32_t start = 0;  ///< index of metrics.front() in that scrape
  std::uint32_t node = kNoNodeId;  ///< answering node's id
  std::vector<obs::MetricSample> metrics;
};

/// Wire bytes one metric record occupies — the server's pagination
/// arithmetic.
std::size_t metrics_record_wire_size(const obs::MetricSample& m) noexcept;

/// One page of the node's flight-recorder snapshot, newest records first.
struct TraceDumpRespBody {
  std::uint32_t total = 0;  ///< records in the full snapshot
  std::uint32_t start = 0;  ///< index of records.front() in that snapshot
  std::int64_t realtime_offset_ns = 0;  ///< the node's wall-clock anchor
  std::vector<obs::TraceRecord> records;
};

/// Fixed wire bytes of one TRACE_DUMP record.
inline constexpr std::size_t kTraceRecordWireBytes = 45;

/// One firing rule inside a HEALTH answer. `status` matches obs::Health's
/// numeric values. Name and reason are capped at 255 bytes on encode.
struct HealthRuleWire {
  std::uint8_t status = 0;
  std::string name;
  std::string reason;
};

struct HealthRespBody {
  std::uint8_t overall = 0;      ///< obs::Health numeric value
  std::uint64_t ticks = 0;       ///< sampler evaluations so far
  std::uint8_t rules_total = 0;  ///< registered rules (firing + ok)
  std::vector<HealthRuleWire> firing;
};

struct ReadReqBody {
  WireGroupId gid = 0;
  std::uint64_t key = 0;        ///< command value looked up
  std::uint64_t min_index = 0;  ///< read-your-writes floor (0 = none)
};

struct ReadRespBody {
  WireGroupId gid = 0;
  std::uint64_t key = 0;
  std::uint64_t index = 0;         ///< applied position + 1; 0 = absent
  std::uint64_t commit_index = 0;  ///< replica's applied length
  ProcessId leader = kNoProcess;
  std::uint64_t epoch = 0;
};

struct MetricsWatchRespBody {
  std::uint32_t period_ms = 0;  ///< sampler period (0 on kUnsupported)
};

/// One page of one sampler tick. Pages of a tick share `tick`, `total`
/// and `health`; start + metrics.size() reaching total completes it.
struct MetricsEventBody {
  std::uint64_t tick = 0;
  std::uint8_t health = 0;  ///< overall obs::Health at this tick
  std::uint32_t total = 0;
  std::uint32_t start = 0;
  std::vector<obs::MetricSample> metrics;
};

/// A decoded request: the header plus the one body its type carries.
/// std::monostate stands for the empty bodies (PING, HEALTH,
/// METRICS_WATCH) and for types this version does not know.
struct Request {
  FrameHeader header;
  std::variant<std::monostate, GidBody, AppendReqBody, ReadLogReqBody,
               RegHelloBody, RegPushBody, SessionOpenReqBody, PageReqBody,
               ReadReqBody>
      body;
};

/// A decoded response or push, shaped like Request (std::monostate for
/// PING and unknown types).
struct Response {
  FrameHeader header;
  std::variant<std::monostate, GidBody, ViewBody, AppendRespBody,
               ReadLogRespBody, CommitSnapshotBody, CommitBody, RegHelloBody,
               RegAckBody,
               SessionOpenRespBody, MetricsRespBody, TraceDumpRespBody,
               HealthRespBody, MetricsWatchRespBody, MetricsEventBody,
               ReadRespBody>
      body;
};

// --- encoding --------------------------------------------------------------
// Encoders append one complete frame (length prefix included) to `out`,
// so a caller can batch several frames into one write buffer.

namespace detail {

/// Appends `v` little-endian in sizeof(T) bytes (enums by their value).
template <class T>
void put_le(std::vector<std::uint8_t>& out, T v) {
  std::uint64_t u = 0;
  if constexpr (std::is_enum_v<T>) {
    u = static_cast<std::uint64_t>(static_cast<std::underlying_type_t<T>>(v));
  } else {
    u = static_cast<std::uint64_t>(v);
  }
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
  }
}

template <class T>
T get_le(const std::uint8_t* p) {
  std::uint64_t u = 0;
  for (std::size_t i = sizeof(T); i-- > 0;) u = u << 8 | p[i];
  return static_cast<T>(u);
}

/// A fixed-layout body described once, as its list of fields in wire
/// order: the same list drives encode, decode and the body length.
template <class B, auto... Fields>
struct Fixed {
  static constexpr std::size_t kBytes =
      (sizeof(std::declval<const B&>().*Fields) + ...);

  static void put(std::vector<std::uint8_t>& out, const B& b) {
    (put_le(out, b.*Fields), ...);
  }

  static B get(const std::uint8_t* p) {
    B b;
    ((b.*Fields = get_le<std::remove_cvref_t<decltype(b.*Fields)>>(p),
      p += sizeof(b.*Fields)),
     ...);
    return b;
  }
};

/// The one wire layout of each fixed body type.
template <class B>
struct LayoutOf;
template <>
struct LayoutOf<GidBody> : Fixed<GidBody, &GidBody::gid> {};
template <>
struct LayoutOf<ViewBody>
    : Fixed<ViewBody, &ViewBody::gid, &ViewBody::leader, &ViewBody::epoch> {};
template <>
struct LayoutOf<AppendReqBody>
    : Fixed<AppendReqBody, &AppendReqBody::gid, &AppendReqBody::client,
            &AppendReqBody::seq, &AppendReqBody::command,
            &AppendReqBody::trace> {};
template <>
struct LayoutOf<AppendRespBody>
    : Fixed<AppendRespBody, &AppendRespBody::gid, &AppendRespBody::index,
            &AppendRespBody::leader, &AppendRespBody::epoch,
            &AppendRespBody::trace> {};
template <>
struct LayoutOf<ReadLogReqBody>
    : Fixed<ReadLogReqBody, &ReadLogReqBody::gid, &ReadLogReqBody::from,
            &ReadLogReqBody::max> {};
template <>
struct LayoutOf<CommitSnapshotBody>
    : Fixed<CommitSnapshotBody, &CommitSnapshotBody::gid,
            &CommitSnapshotBody::commit_index> {};
template <>
struct LayoutOf<CommitBody>
    : Fixed<CommitBody, &CommitBody::gid, &CommitBody::index,
            &CommitBody::value, &CommitBody::trace> {};
template <>
struct LayoutOf<RegHelloBody> : Fixed<RegHelloBody, &RegHelloBody::node> {};
template <>
struct LayoutOf<RegAckBody> : Fixed<RegAckBody, &RegAckBody::seq> {};
template <>
struct LayoutOf<SessionOpenReqBody>
    : Fixed<SessionOpenReqBody, &SessionOpenReqBody::gid,
            &SessionOpenReqBody::client> {};
template <>
struct LayoutOf<SessionOpenRespBody>
    : Fixed<SessionOpenRespBody, &SessionOpenRespBody::gid,
            &SessionOpenRespBody::ttl_us> {};
template <>
struct LayoutOf<PageReqBody> : Fixed<PageReqBody, &PageReqBody::start> {};
template <>
struct LayoutOf<MetricsWatchRespBody>
    : Fixed<MetricsWatchRespBody, &MetricsWatchRespBody::period_ms> {};
template <>
struct LayoutOf<ReadReqBody>
    : Fixed<ReadReqBody, &ReadReqBody::gid, &ReadReqBody::key,
            &ReadReqBody::min_index> {};
template <>
struct LayoutOf<ReadRespBody>
    : Fixed<ReadRespBody, &ReadRespBody::gid, &ReadRespBody::key,
            &ReadRespBody::index, &ReadRespBody::commit_index,
            &ReadRespBody::leader, &ReadRespBody::epoch> {};

/// Reserves the length prefix and writes the header; returns the prefix
/// offset for end_frame to patch.
std::size_t begin_frame(std::vector<std::uint8_t>& out, const FrameHeader& h);
void end_frame(std::vector<std::uint8_t>& out, std::size_t len_at);

}  // namespace detail

/// Any frame whose body has a fixed layout: the body's type selects its
/// layout, `type` must be one that carries that body (the peer's decoder
/// refuses any other pairing). Pushes use req_id 0.
template <class Body>
void encode_fixed(std::vector<std::uint8_t>& out, MsgType type, Status status,
                  std::uint64_t req_id, const Body& body) {
  const std::size_t at =
      detail::begin_frame(out, FrameHeader{type, status, req_id});
  detail::LayoutOf<Body>::put(out, body);
  detail::end_frame(out, at);
}

/// A header-only frame: the PING, HEALTH and METRICS_WATCH requests, the
/// PING answer, or kUnsupported for an unknown type.
void encode_header_only(std::vector<std::uint8_t>& out, MsgType type,
                        Status status, std::uint64_t req_id);

/// `entries` holds at most kMaxLogEntries (empty for error answers).
void encode_readlog_response(std::vector<std::uint8_t>& out, Status status,
                             std::uint64_t req_id, WireGroupId gid,
                             std::uint64_t commit_index,
                             const std::vector<std::uint64_t>& entries);

/// REG_PUSH one-way frame; `count` must be in [1, kMaxPushCells].
void encode_reg_push(std::vector<std::uint8_t>& out, WireGroupId gid,
                     std::uint64_t seq, const RegCellUpdate* cells,
                     std::uint32_t count);

/// METRICS answer page; the caller sizes it with metrics_record_wire_size
/// so the frame stays inside kMaxPayloadBytes.
void encode_metrics_response(std::vector<std::uint8_t>& out, Status status,
                             std::uint64_t req_id,
                             const MetricsRespBody& body);

/// TRACE_DUMP answer page; the caller caps it at (kMaxPayloadBytes -
/// kHeaderBytes - 20) / kTraceRecordWireBytes records.
void encode_trace_dump_response(std::vector<std::uint8_t>& out,
                                Status status, std::uint64_t req_id,
                                const TraceDumpRespBody& body);

/// HEALTH answer; the frame must stay inside kMaxPayloadBytes (the rule
/// set is small by construction).
void encode_health_response(std::vector<std::uint8_t>& out, Status status,
                            std::uint64_t req_id,
                            const HealthRespBody& body);

/// METRICS_EVENT push (req_id 0); sized like a METRICS page.
void encode_metrics_event(std::vector<std::uint8_t>& out,
                          const MetricsEventBody& body);

// --- decoding --------------------------------------------------------------

enum class DecodeResult {
  kOk,
  kBadMagic,   ///< wrong magic or version byte
  kBadLength,  ///< payload shorter than the fixed header
  kBadBody,    ///< body is not the layout of its (type, role)
};

/// Decodes one payload (the bytes after the length prefix) read by the
/// serving side of a connection.
DecodeResult decode_request(const std::uint8_t* data, std::size_t len,
                            Request& out);

/// Decodes one payload read by the requesting side of a connection.
DecodeResult decode_response(const std::uint8_t* data, std::size_t len,
                             Response& out);

/// Incremental stream reassembler: feed() raw TCP bytes, then drain
/// complete payloads with next(). Rejects oversized length prefixes.
class FrameDecoder {
 public:
  /// Appends raw bytes from the stream.
  void feed(const std::uint8_t* data, std::size_t len);

  /// If a complete frame is buffered, sets `payload`/`len` to its payload
  /// bytes (valid until the next feed()/next() call) and returns true.
  /// Returns false when more bytes are needed.
  bool next(const std::uint8_t*& payload, std::size_t& len);

  /// True once a length prefix exceeded kMaxPayloadBytes; the stream is
  /// unrecoverable and the connection must be closed.
  bool corrupt() const noexcept { return corrupt_; }

  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  bool corrupt_ = false;
};

}  // namespace omega::net
