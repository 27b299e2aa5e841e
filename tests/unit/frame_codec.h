// Shared helpers of the wire-codec tests: stream decoding per role and a
// corpus with one valid frame of every (type, role).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "net/frame.h"

namespace omega::net::test {

using Bytes = std::vector<std::uint8_t>;
using RequestVariant = decltype(Request::body);
using ResponseVariant = decltype(Response::body);

/// Index of alternative T inside variant V.
template <class T, class V, std::size_t I = 0>
constexpr std::size_t alt_of() {
  if constexpr (std::is_same_v<T, std::variant_alternative_t<I, V>>) {
    return I;
  } else {
    return alt_of<T, V, I + 1>();
  }
}

/// Feeds `bytes` to a FrameDecoder in `chunk`-sized pieces and decodes
/// every completed payload with `decode`, expecting kOk.
template <class Msg, class Decode>
std::vector<Msg> decode_stream(const Bytes& bytes, std::size_t chunk,
                               Decode decode) {
  FrameDecoder dec;
  std::vector<Msg> out;
  for (std::size_t at = 0; at < bytes.size(); at += chunk) {
    dec.feed(bytes.data() + at, std::min(chunk, bytes.size() - at));
    const std::uint8_t* payload = nullptr;
    std::size_t len = 0;
    while (dec.next(payload, len)) {
      Msg m;
      EXPECT_EQ(decode(payload, len, m), DecodeResult::kOk);
      out.push_back(std::move(m));
    }
  }
  return out;
}

inline std::vector<Request> requests(const Bytes& bytes,
                                     std::size_t chunk = 1 << 20) {
  return decode_stream<Request>(bytes, chunk, decode_request);
}

inline std::vector<Response> responses(const Bytes& bytes,
                                       std::size_t chunk = 1 << 20) {
  return decode_stream<Response>(bytes, chunk, decode_response);
}

/// Decodes the payload of one encoded frame (length prefix included),
/// clipped by `clip` bytes at the end.
inline DecodeResult decode_as_response(const Bytes& frame, Response& out,
                                       std::size_t clip = 0) {
  return decode_response(frame.data() + 4, frame.size() - 4 - clip, out);
}

inline DecodeResult decode_as_request(const Bytes& frame, Request& out,
                                      std::size_t clip = 0) {
  return decode_request(frame.data() + 4, frame.size() - 4 - clip, out);
}

inline obs::MetricSample sample_counter(std::string name, std::int64_t v) {
  obs::MetricSample m;
  m.name = std::move(name);
  m.kind = obs::MetricSample::Kind::kCounter;
  m.value = v;
  return m;
}

inline obs::MetricSample sample_histogram() {
  obs::MetricSample m;
  m.name = "smr.seal_to_decide_ns";
  m.kind = obs::MetricSample::Kind::kHistogram;
  m.value = 11;
  m.sum = 987654;
  m.buckets = {{10, 4}, {11, 6}, {63, 1}};
  return m;
}

inline obs::TraceRecord sample_record(std::uint64_t ts) {
  obs::TraceRecord r;
  r.ts_ns = ts;
  r.thread = 3;
  r.ev = obs::TraceEvent::kBatchSeal;
  r.a = 41;
  r.b = 42;
  r.trace_lo = 0xAAAA;
  r.trace_hi = 0xBBBB;
  return r;
}

/// One (type, role) of the protocol: how to encode it under a status and
/// which body alternative it must decode to.
struct Shape {
  std::string name;
  bool request = false;
  bool fixed_status = false;  ///< requests and pushes: status is always 0
  std::size_t alternative = 0;
  std::function<void(Bytes&, Status)> encode;
};

/// Every (type, role) of the wire, each with a representative body.
inline std::vector<Shape> all_shapes() {
  using Q = RequestVariant;
  using R = ResponseVariant;
  std::vector<Shape> v;
  const auto gid_request = [&v](const char* name, MsgType t) {
    v.push_back({name, true, true, alt_of<GidBody, Q>(),
                 [t](Bytes& b, Status) {
                   encode_fixed(b, t, Status::kOk, 7, GidBody{42});
                 }});
  };
  const auto empty_request = [&v](const char* name, MsgType t) {
    v.push_back({name, true, true, alt_of<std::monostate, Q>(),
                 [t](Bytes& b, Status) {
                   encode_header_only(b, t, Status::kOk, 7);
                 }});
  };
  gid_request("LEADER req", MsgType::kLeader);
  gid_request("WATCH req", MsgType::kWatch);
  gid_request("UNWATCH req", MsgType::kUnwatch);
  gid_request("COMMIT_WATCH req", MsgType::kCommitWatch);
  gid_request("COMMIT_UNWATCH req", MsgType::kCommitUnwatch);
  empty_request("PING req", MsgType::kPing);
  empty_request("HEALTH req", MsgType::kHealth);
  empty_request("METRICS_WATCH req", MsgType::kMetricsWatch);
  v.push_back({"APPEND req", true, true, alt_of<AppendReqBody, Q>(),
               [](Bytes& b, Status) {
                 encode_fixed(b, MsgType::kAppend, Status::kOk, 7,
                              AppendReqBody{1, 2, 3, 4, 5});
               }});
  v.push_back({"READ_LOG req", true, true, alt_of<ReadLogReqBody, Q>(),
               [](Bytes& b, Status) {
                 encode_fixed(b, MsgType::kReadLog, Status::kOk, 7,
                              ReadLogReqBody{1, 100, 16});
               }});
  v.push_back({"REG_HELLO req", true, true, alt_of<RegHelloBody, Q>(),
               [](Bytes& b, Status s) {
                 encode_fixed(b, MsgType::kRegHello, s, 7, RegHelloBody{2});
               }});
  v.push_back({"REG_PUSH", true, true, alt_of<RegPushBody, Q>(),
               [](Bytes& b, Status) {
                 const RegCellUpdate cells[2] = {{10, 100}, {11, 1ull << 40}};
                 encode_reg_push(b, 42, 7, cells, 2);
               }});
  v.push_back({"SESSION_OPEN req", true, true,
               alt_of<SessionOpenReqBody, Q>(), [](Bytes& b, Status) {
                 encode_fixed(b, MsgType::kSessionOpen, Status::kOk, 7,
                              SessionOpenReqBody{5, 9});
               }});
  v.push_back({"METRICS req", true, true, alt_of<PageReqBody, Q>(),
               [](Bytes& b, Status) {
                 encode_fixed(b, MsgType::kMetrics, Status::kOk, 7,
                              PageReqBody{123});
               }});
  v.push_back({"TRACE_DUMP req", true, true, alt_of<PageReqBody, Q>(),
               [](Bytes& b, Status) {
                 encode_fixed(b, MsgType::kTraceDump, Status::kOk, 7,
                              PageReqBody{4096});
               }});
  v.push_back({"READ req", true, true, alt_of<ReadReqBody, Q>(),
               [](Bytes& b, Status) {
                 encode_fixed(b, MsgType::kRead, Status::kOk, 7,
                              ReadReqBody{9, 0xBEEF, 123});
               }});

  const auto view_response = [&v](const char* name, MsgType t) {
    v.push_back({name, false, false, alt_of<ViewBody, R>(),
                 [t](Bytes& b, Status s) {
                   encode_fixed(b, t, s, 7, ViewBody{42, 2, 17});
                 }});
  };
  view_response("LEADER resp", MsgType::kLeader);
  view_response("WATCH resp", MsgType::kWatch);
  v.push_back({"EVENT", false, true, alt_of<ViewBody, R>(),
               [](Bytes& b, Status) {
                 encode_fixed(b, MsgType::kEvent, Status::kOk, 0,
                              ViewBody{3, kNoProcess, 9});
               }});
  const auto gid_response = [&v](const char* name, MsgType t) {
    v.push_back({name, false, false, alt_of<GidBody, R>(),
                 [t](Bytes& b, Status s) {
                   encode_fixed(b, t, s, 7, GidBody{42});
                 }});
  };
  gid_response("UNWATCH resp", MsgType::kUnwatch);
  gid_response("COMMIT_UNWATCH resp", MsgType::kCommitUnwatch);
  v.push_back({"PING resp", false, false, alt_of<std::monostate, R>(),
               [](Bytes& b, Status s) {
                 encode_header_only(b, MsgType::kPing, s, 7);
               }});
  v.push_back({"APPEND resp", false, false, alt_of<AppendRespBody, R>(),
               [](Bytes& b, Status s) {
                 encode_fixed(b, MsgType::kAppend, s, 7,
                              AppendRespBody{1, 99, 2, 3, 0xF00D});
               }});
  v.push_back({"READ_LOG resp", false, false, alt_of<ReadLogRespBody, R>(),
               [](Bytes& b, Status s) {
                 encode_readlog_response(b, s, 7, 2, 103, {11, 22, 33});
               }});
  v.push_back({"COMMIT_WATCH resp", false, false,
               alt_of<CommitSnapshotBody, R>(),
               [](Bytes& b, Status s) {
                 encode_fixed(b, MsgType::kCommitWatch, s, 7,
                              CommitSnapshotBody{5, 40});
               }});
  v.push_back({"COMMIT_EVENT", false, true, alt_of<CommitBody, R>(),
               [](Bytes& b, Status) {
                 encode_fixed(b, MsgType::kCommitEvent, Status::kOk,
                              /*req_id=*/0, CommitBody{5, 41, 777, 0xFEED});
               }});
  v.push_back({"REG_HELLO resp", false, false, alt_of<RegHelloBody, R>(),
               [](Bytes& b, Status s) {
                 encode_fixed(b, MsgType::kRegHello, s, 7, RegHelloBody{1});
               }});
  v.push_back({"REG_ACK", false, true, alt_of<RegAckBody, R>(),
               [](Bytes& b, Status) {
                 encode_fixed(b, MsgType::kRegAck, Status::kOk, 0,
                              RegAckBody{7});
               }});
  v.push_back({"SESSION_OPEN resp", false, false,
               alt_of<SessionOpenRespBody, R>(), [](Bytes& b, Status s) {
                 encode_fixed(b, MsgType::kSessionOpen, s, 7,
                              SessionOpenRespBody{5, 1000});
               }});
  v.push_back({"METRICS resp", false, false, alt_of<MetricsRespBody, R>(),
               [](Bytes& b, Status s) {
                 MetricsRespBody body;
                 body.total = 5;
                 body.start = 3;
                 body.node = 2;
                 body.metrics = {sample_counter("net.frames.append", 8),
                                 sample_histogram()};
                 encode_metrics_response(b, s, 7, body);
               }});
  v.push_back({"TRACE_DUMP resp", false, false,
               alt_of<TraceDumpRespBody, R>(), [](Bytes& b, Status s) {
                 TraceDumpRespBody body;
                 body.total = 9;
                 body.start = 2;
                 body.realtime_offset_ns = -123456789;
                 body.records = {sample_record(1000), sample_record(2000)};
                 encode_trace_dump_response(b, s, 7, body);
               }});
  v.push_back({"HEALTH resp", false, false, alt_of<HealthRespBody, R>(),
               [](Bytes& b, Status s) {
                 HealthRespBody body;
                 body.overall = 1;
                 body.ticks = 4242;
                 body.rules_total = 7;
                 body.firing = {{1, "mirror-push-lag", "p99 612ms"}};
                 encode_health_response(b, s, 7, body);
               }});
  v.push_back({"METRICS_WATCH resp", false, false,
               alt_of<MetricsWatchRespBody, R>(), [](Bytes& b, Status s) {
                 encode_fixed(b, MsgType::kMetricsWatch, s, 7,
                              MetricsWatchRespBody{250});
               }});
  v.push_back({"METRICS_EVENT", false, true, alt_of<MetricsEventBody, R>(),
               [](Bytes& b, Status) {
                 MetricsEventBody body;
                 body.tick = 77;
                 body.health = 1;
                 body.total = 40;
                 body.start = 20;
                 body.metrics = {sample_counter("smr.queue_pending", 17)};
                 encode_metrics_event(b, body);
               }});
  v.push_back({"READ resp", false, false, alt_of<ReadRespBody, R>(),
               [](Bytes& b, Status s) {
                 encode_fixed(b, MsgType::kRead, s, 7,
                              ReadRespBody{4, 0x1234, 57, 900, 2, 11});
               }});
  return v;
}

/// Every Status value the protocol defines.
inline std::vector<Status> all_statuses() {
  std::vector<Status> s;
  for (std::uint8_t i = 0; i <= static_cast<std::uint8_t>(Status::kIndexRead);
       ++i) {
    s.push_back(static_cast<Status>(i));
  }
  return s;
}

}  // namespace omega::net::test
