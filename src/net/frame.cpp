#include "net/frame.h"

#include <algorithm>

#include "common/check.h"

namespace omega::net {
namespace {

using detail::get_le;
using detail::LayoutOf;
using detail::put_le;

using TraceRecordL =
    detail::Fixed<obs::TraceRecord, &obs::TraceRecord::ts_ns,
          &obs::TraceRecord::thread, &obs::TraceRecord::ev,
          &obs::TraceRecord::a, &obs::TraceRecord::b,
          &obs::TraceRecord::trace_lo, &obs::TraceRecord::trace_hi>;
static_assert(TraceRecordL::kBytes == kTraceRecordWireBytes);

/// Smallest metric record: kind | name_len | value | sum | nbuckets.
constexpr std::size_t kMinMetricBytes = 1 + 1 + 8 + 8 + 1;
/// Smallest health rule: status | two empty length-prefixed strings.
constexpr std::size_t kMinRuleBytes = 3;

/// Appends one metric record (the METRICS/METRICS_EVENT shared format).
void put_metric_record(std::vector<std::uint8_t>& out,
                       const obs::MetricSample& m) {
  put_le(out, m.kind);
  // Truncating here would make the scraped name differ from the registry
  // name (and let two long names collide into one record); the vocabulary
  // is static, so a too-long name is a programming error.
  OMEGA_CHECK(m.name.size() <= 255,
              "metric name exceeds wire limit: " << m.name);
  put_le<std::uint8_t>(out, m.name.size());
  out.insert(out.end(), m.name.begin(), m.name.end());
  put_le<std::uint64_t>(out, m.value);
  put_le<std::uint64_t>(out, m.sum);
  OMEGA_CHECK(m.buckets.size() <= obs::kHistogramBuckets,
              "metric " << m.name << " has " << m.buckets.size()
                        << " buckets");
  put_le<std::uint8_t>(out, m.buckets.size());
  for (const auto& [b, n] : m.buckets) {
    put_le<std::uint8_t>(out, b);
    put_le<std::uint64_t>(out, n);
  }
}

/// Appends a u8-length-prefixed string, truncated at 255 bytes.
void put_short_string(std::vector<std::uint8_t>& out, const std::string& s) {
  const std::size_t n = std::min<std::size_t>(s.size(), 255);
  put_le<std::uint8_t>(out, n);
  out.insert(out.end(), s.begin(), s.begin() + static_cast<std::ptrdiff_t>(n));
}

/// Bounds-checked cursor over a variable body: a read past the end yields
/// zero and clears `ok`, so a decoder checks once, at the end.
struct Reader {
  const std::uint8_t* p;
  std::size_t left;
  bool ok = true;

  /// The next `n` bytes, or nullptr when the body is shorter.
  const std::uint8_t* bytes(std::size_t n) {
    if (n > left) {
      ok = false;
      left = 0;
      return nullptr;
    }
    const std::uint8_t* at = p;
    p += n;
    left -= n;
    return at;
  }
  template <class T>
  T take() {
    const std::uint8_t* at = bytes(sizeof(T));
    return at != nullptr ? get_le<T>(at) : T{};
  }
  std::string text() {
    const std::size_t n = take<std::uint8_t>();
    const std::uint8_t* at = bytes(n);
    return at != nullptr ? std::string(reinterpret_cast<const char*>(at), n)
                         : std::string();
  }
  /// True when every read fit and the body was consumed exactly.
  bool done() const { return ok && left == 0; }
};

/// Sizes `out` by a wire-controlled record count, refusing counts above
/// `max` or beyond what the body can hold at `min_bytes` per record —
/// before anything is allocated.
template <class Count, class T>
bool take_count(Reader& r, std::size_t max, std::size_t min_bytes,
                std::vector<T>& out) {
  const std::size_t count = r.take<Count>();
  if (!r.ok || count > max || count > r.left / min_bytes) return false;
  out.resize(count);
  return true;
}

/// Reads a u32-counted run of metric records.
bool take_metrics(Reader& r, std::vector<obs::MetricSample>& out) {
  if (!take_count<std::uint32_t>(r, kMaxPayloadBytes, kMinMetricBytes, out)) {
    return false;
  }
  for (obs::MetricSample& m : out) {
    m.kind = r.take<obs::MetricSample::Kind>();
    m.name = r.text();
    m.value = r.take<std::int64_t>();
    m.sum = r.take<std::uint64_t>();
    if (!take_count<std::uint8_t>(r, obs::kHistogramBuckets, 9, m.buckets)) {
      return false;
    }
    for (auto& [b, n] : m.buckets) {
      b = r.take<std::uint8_t>();
      n = r.take<std::uint64_t>();
    }
  }
  return r.ok;
}

template <class B, class Out>
DecodeResult decode_fixed(const std::uint8_t* body, std::size_t n, Out& out) {
  if (n != LayoutOf<B>::kBytes) return DecodeResult::kBadBody;
  out = LayoutOf<B>::get(body);
  return DecodeResult::kOk;
}

DecodeResult decode_empty(std::size_t n) {
  return n == 0 ? DecodeResult::kOk : DecodeResult::kBadBody;
}

/// Applies `parse` to a fresh body; kOk only if it consumed every byte.
template <class B, class Body, class Parse>
DecodeResult decode_variable(const std::uint8_t* body, std::size_t n,
                             Body& out, Parse parse) {
  Reader r{body, n};
  B b;
  if (!parse(r, b) || !r.done()) return DecodeResult::kBadBody;
  out = std::move(b);
  return DecodeResult::kOk;
}

DecodeResult decode_header(const std::uint8_t* data, std::size_t len,
                           FrameHeader& h) {
  if (len < kHeaderBytes) return DecodeResult::kBadLength;
  if (data[0] != kMagic || data[1] != kVersion) return DecodeResult::kBadMagic;
  h.type = static_cast<MsgType>(data[2]);
  h.status = static_cast<Status>(data[3]);
  h.req_id = get_le<std::uint64_t>(data + 4);
  return DecodeResult::kOk;
}

}  // namespace

namespace detail {

std::size_t begin_frame(std::vector<std::uint8_t>& out,
                        const FrameHeader& h) {
  const std::size_t len_at = out.size();
  put_le<std::uint32_t>(out, 0);  // patched by end_frame
  put_le<std::uint8_t>(out, kMagic);
  put_le<std::uint8_t>(out, kVersion);
  put_le(out, h.type);
  put_le(out, h.status);
  put_le<std::uint64_t>(out, h.req_id);
  return len_at;
}

void end_frame(std::vector<std::uint8_t>& out, std::size_t len_at) {
  const std::size_t payload_len = out.size() - len_at - 4;
  OMEGA_CHECK(payload_len <= kMaxPayloadBytes,
              "frame overflows the payload cap: " << payload_len);
  for (std::size_t i = 0; i < 4; ++i) {
    out[len_at + i] = static_cast<std::uint8_t>(payload_len >> (8 * i));
  }
}

}  // namespace detail

using detail::begin_frame;
using detail::end_frame;

void encode_header_only(std::vector<std::uint8_t>& out, MsgType type,
                        Status status, std::uint64_t req_id) {
  end_frame(out, begin_frame(out, FrameHeader{type, status, req_id}));
}

void encode_readlog_response(std::vector<std::uint8_t>& out, Status status,
                             std::uint64_t req_id, WireGroupId gid,
                             std::uint64_t commit_index,
                             const std::vector<std::uint64_t>& entries) {
  OMEGA_CHECK(entries.size() <= kMaxLogEntries,
              "readlog page too large: " << entries.size());
  const std::size_t at =
      begin_frame(out, FrameHeader{MsgType::kReadLog, status, req_id});
  put_le<std::uint64_t>(out, gid);
  put_le<std::uint64_t>(out, commit_index);
  put_le<std::uint32_t>(out, entries.size());
  for (const std::uint64_t v : entries) put_le<std::uint64_t>(out, v);
  end_frame(out, at);
}

void encode_reg_push(std::vector<std::uint8_t>& out, WireGroupId gid,
                     std::uint64_t seq, const RegCellUpdate* cells,
                     std::uint32_t count) {
  OMEGA_CHECK(count >= 1 && count <= kMaxPushCells,
              "push frame of " << count << " cells out of range");
  const std::size_t at = begin_frame(
      out, FrameHeader{MsgType::kRegPush, Status::kOk, /*req_id=*/0});
  put_le<std::uint64_t>(out, gid);
  put_le<std::uint64_t>(out, seq);
  put_le<std::uint32_t>(out, count);
  for (std::uint32_t i = 0; i < count; ++i) {
    put_le<std::uint32_t>(out, cells[i].cell);
    put_le<std::uint64_t>(out, cells[i].value);
  }
  end_frame(out, at);
}

std::size_t metrics_record_wire_size(const obs::MetricSample& m) noexcept {
  // Names are checked <= 255 bytes at registration and again at encode, so
  // the size needs no clamping here.
  return kMinMetricBytes + m.name.size() + m.buckets.size() * 9;
}

void encode_metrics_response(std::vector<std::uint8_t>& out, Status status,
                             std::uint64_t req_id,
                             const MetricsRespBody& body) {
  const std::size_t at =
      begin_frame(out, FrameHeader{MsgType::kMetrics, status, req_id});
  put_le<std::uint32_t>(out, body.total);
  put_le<std::uint32_t>(out, body.start);
  put_le<std::uint32_t>(out, body.metrics.size());
  for (const obs::MetricSample& m : body.metrics) put_metric_record(out, m);
  put_le<std::uint32_t>(out, body.node);
  end_frame(out, at);
}

void encode_trace_dump_response(std::vector<std::uint8_t>& out,
                                Status status, std::uint64_t req_id,
                                const TraceDumpRespBody& body) {
  const std::size_t at =
      begin_frame(out, FrameHeader{MsgType::kTraceDump, status, req_id});
  put_le<std::uint32_t>(out, body.total);
  put_le<std::uint32_t>(out, body.start);
  put_le(out, body.realtime_offset_ns);
  put_le<std::uint32_t>(out, body.records.size());
  for (const obs::TraceRecord& r : body.records) TraceRecordL::put(out, r);
  end_frame(out, at);
}

void encode_health_response(std::vector<std::uint8_t>& out, Status status,
                            std::uint64_t req_id,
                            const HealthRespBody& body) {
  OMEGA_CHECK(body.firing.size() <= 255,
              "health response with " << body.firing.size() << " rules");
  const std::size_t at =
      begin_frame(out, FrameHeader{MsgType::kHealth, status, req_id});
  put_le<std::uint8_t>(out, body.overall);
  put_le<std::uint64_t>(out, body.ticks);
  put_le<std::uint8_t>(out, body.rules_total);
  put_le<std::uint8_t>(out, body.firing.size());
  for (const HealthRuleWire& r : body.firing) {
    put_le<std::uint8_t>(out, r.status);
    put_short_string(out, r.name);
    put_short_string(out, r.reason);
  }
  end_frame(out, at);
}

void encode_metrics_event(std::vector<std::uint8_t>& out,
                          const MetricsEventBody& body) {
  const std::size_t at = begin_frame(
      out, FrameHeader{MsgType::kMetricsEvent, Status::kOk, /*req_id=*/0});
  put_le<std::uint64_t>(out, body.tick);
  put_le<std::uint8_t>(out, body.health);
  put_le<std::uint32_t>(out, body.total);
  put_le<std::uint32_t>(out, body.start);
  put_le<std::uint32_t>(out, body.metrics.size());
  for (const obs::MetricSample& m : body.metrics) put_metric_record(out, m);
  end_frame(out, at);
}

DecodeResult decode_request(const std::uint8_t* data, std::size_t len,
                            Request& out) {
  out.body = std::monostate{};
  if (const DecodeResult r = decode_header(data, len, out.header);
      r != DecodeResult::kOk) {
    return r;
  }
  const std::uint8_t* body = data + kHeaderBytes;
  const std::size_t n = len - kHeaderBytes;
  switch (out.header.type) {
    case MsgType::kLeader:
    case MsgType::kWatch:
    case MsgType::kUnwatch:
    case MsgType::kCommitWatch:
    case MsgType::kCommitUnwatch:
      return decode_fixed<GidBody>(body, n, out.body);
    case MsgType::kPing:
    case MsgType::kHealth:
    case MsgType::kMetricsWatch:
      return decode_empty(n);
    case MsgType::kAppend:
      return decode_fixed<AppendReqBody>(body, n, out.body);
    case MsgType::kReadLog:
      return decode_fixed<ReadLogReqBody>(body, n, out.body);
    case MsgType::kRegHello:
      return decode_fixed<RegHelloBody>(body, n, out.body);
    case MsgType::kRegPush:
      return decode_variable<RegPushBody>(
          body, n, out.body, [](Reader& r, RegPushBody& b) {
            b.gid = r.take<std::uint64_t>();
            b.seq = r.take<std::uint64_t>();
            if (!take_count<std::uint32_t>(r, kMaxPushCells, 12, b.cells)) {
              return false;
            }
            for (RegCellUpdate& u : b.cells) {
              u.cell = r.take<std::uint32_t>();
              u.value = r.take<std::uint64_t>();
            }
            return true;
          });
    case MsgType::kSessionOpen:
      return decode_fixed<SessionOpenReqBody>(body, n, out.body);
    case MsgType::kMetrics:
    case MsgType::kTraceDump:
      return decode_fixed<PageReqBody>(body, n, out.body);
    case MsgType::kRead:
      return decode_fixed<ReadReqBody>(body, n, out.body);
    case MsgType::kEvent:
    case MsgType::kCommitEvent:
    case MsgType::kRegAck:
    case MsgType::kMetricsEvent:
      return DecodeResult::kBadBody;  // no request role
  }
  return DecodeResult::kOk;  // unknown type: header only
}

DecodeResult decode_response(const std::uint8_t* data, std::size_t len,
                             Response& out) {
  out.body = std::monostate{};
  if (const DecodeResult r = decode_header(data, len, out.header);
      r != DecodeResult::kOk) {
    return r;
  }
  const std::uint8_t* body = data + kHeaderBytes;
  const std::size_t n = len - kHeaderBytes;
  switch (out.header.type) {
    case MsgType::kLeader:
    case MsgType::kWatch:
    case MsgType::kEvent:
      return decode_fixed<ViewBody>(body, n, out.body);
    case MsgType::kUnwatch:
    case MsgType::kCommitUnwatch:
      return decode_fixed<GidBody>(body, n, out.body);
    case MsgType::kPing:
      return decode_empty(n);
    case MsgType::kAppend:
      return decode_fixed<AppendRespBody>(body, n, out.body);
    case MsgType::kReadLog:
      return decode_variable<ReadLogRespBody>(
          body, n, out.body, [](Reader& r, ReadLogRespBody& b) {
            b.gid = r.take<std::uint64_t>();
            b.commit_index = r.take<std::uint64_t>();
            if (!take_count<std::uint32_t>(r, kMaxLogEntries, 8, b.entries)) {
              return false;
            }
            for (std::uint64_t& e : b.entries) e = r.take<std::uint64_t>();
            return true;
          });
    case MsgType::kCommitWatch:
      return decode_fixed<CommitSnapshotBody>(body, n, out.body);
    case MsgType::kCommitEvent:
      return decode_fixed<CommitBody>(body, n, out.body);
    case MsgType::kRegHello:
      return decode_fixed<RegHelloBody>(body, n, out.body);
    case MsgType::kRegAck:
      return decode_fixed<RegAckBody>(body, n, out.body);
    case MsgType::kSessionOpen:
      return decode_fixed<SessionOpenRespBody>(body, n, out.body);
    case MsgType::kMetrics:
      return decode_variable<MetricsRespBody>(
          body, n, out.body, [](Reader& r, MetricsRespBody& b) {
            b.total = r.take<std::uint32_t>();
            b.start = r.take<std::uint32_t>();
            if (!take_metrics(r, b.metrics)) return false;
            b.node = r.take<std::uint32_t>();
            return true;
          });
    case MsgType::kTraceDump:
      return decode_variable<TraceDumpRespBody>(
          body, n, out.body, [](Reader& r, TraceDumpRespBody& b) {
            b.total = r.take<std::uint32_t>();
            b.start = r.take<std::uint32_t>();
            b.realtime_offset_ns = r.take<std::int64_t>();
            if (!take_count<std::uint32_t>(r, kMaxPayloadBytes,
                                           kTraceRecordWireBytes, b.records)) {
              return false;
            }
            for (obs::TraceRecord& t : b.records) {
              t = TraceRecordL::get(r.bytes(kTraceRecordWireBytes));
            }
            return true;
          });
    case MsgType::kHealth:
      return decode_variable<HealthRespBody>(
          body, n, out.body, [](Reader& r, HealthRespBody& b) {
            b.overall = r.take<std::uint8_t>();
            b.ticks = r.take<std::uint64_t>();
            b.rules_total = r.take<std::uint8_t>();
            if (!take_count<std::uint8_t>(r, 255, kMinRuleBytes, b.firing)) {
              return false;
            }
            for (HealthRuleWire& w : b.firing) {
              w.status = r.take<std::uint8_t>();
              w.name = r.text();
              w.reason = r.text();
            }
            return true;
          });
    case MsgType::kMetricsWatch:
      return decode_fixed<MetricsWatchRespBody>(body, n, out.body);
    case MsgType::kMetricsEvent:
      return decode_variable<MetricsEventBody>(
          body, n, out.body, [](Reader& r, MetricsEventBody& b) {
            b.tick = r.take<std::uint64_t>();
            b.health = r.take<std::uint8_t>();
            b.total = r.take<std::uint32_t>();
            b.start = r.take<std::uint32_t>();
            return take_metrics(r, b.metrics);
          });
    case MsgType::kRead:
      return decode_fixed<ReadRespBody>(body, n, out.body);
    case MsgType::kRegPush:
      return DecodeResult::kBadBody;  // no response role
  }
  return DecodeResult::kOk;  // unknown type: header only
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t len) {
  if (corrupt_) return;
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

bool FrameDecoder::next(const std::uint8_t*& payload, std::size_t& len) {
  if (corrupt_) return false;
  if (buf_.size() - pos_ < 4) return false;
  const std::uint8_t* p = buf_.data() + pos_;
  const std::uint32_t payload_len = get_le<std::uint32_t>(p);
  if (payload_len > kMaxPayloadBytes) {
    corrupt_ = true;
    return false;
  }
  if (buf_.size() - pos_ < 4 + static_cast<std::size_t>(payload_len)) {
    return false;
  }
  payload = p + 4;
  len = payload_len;
  pos_ += 4 + payload_len;
  return true;
}

}  // namespace omega::net
