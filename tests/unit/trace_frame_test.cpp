// Tracing codec (net/frame.h): TRACE_DUMP request/response round-trips
// with pagination arithmetic, rejection of truncated and count-bombed
// pages, and trace ids riding APPEND/COMMIT_EVENT bodies. Mirrors the
// hardening bar set by metrics_frame_test.cpp.
#include "net/frame.h"

#include <gtest/gtest.h>

#include "frame_codec.h"

#include <vector>

namespace omega::net {
namespace {

std::vector<Response> decode_all(const std::vector<std::uint8_t>& bytes) {
  return test::responses(bytes);
}

obs::TraceRecord record(std::uint64_t ts, obs::TraceEvent ev,
                        std::uint64_t lo, std::uint64_t hi) {
  obs::TraceRecord r;
  r.ts_ns = ts;
  r.thread = 3;
  r.ev = ev;
  r.a = 41;
  r.b = 42;
  r.trace_lo = lo;
  r.trace_hi = hi;
  return r;
}

TEST(TraceFrame, RequestRoundTrip) {
  std::vector<std::uint8_t> buf;
  encode_fixed(buf, MsgType::kTraceDump, Status::kOk, /*req_id=*/21,
               PageReqBody{4096});
  const auto frames = test::requests(buf);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, MsgType::kTraceDump);
  EXPECT_EQ(frames[0].header.req_id, 21u);
  EXPECT_EQ(std::get<PageReqBody>(frames[0].body).start, 4096u);
}

TEST(TraceFrame, ResponseRoundTrip) {
  TraceDumpRespBody body;
  body.total = 9;
  body.start = 2;
  body.realtime_offset_ns = -123456789;  // i64 survives the wire
  body.records.push_back(record(1000, obs::TraceEvent::kAppendEnqueue,
                                0xAAAAu, 0));
  body.records.push_back(record(2000, obs::TraceEvent::kBatchSeal, 0xAAAAu,
                                0xBBBBu));
  std::vector<std::uint8_t> buf;
  encode_trace_dump_response(buf, Status::kOk, /*req_id=*/5, body);
  const auto frames = decode_all(buf);
  ASSERT_EQ(frames.size(), 1u);
  const Response& f = frames[0];
  EXPECT_EQ(f.header.type, MsgType::kTraceDump);
  EXPECT_EQ(f.header.status, Status::kOk);
  EXPECT_EQ(std::get<TraceDumpRespBody>(f.body).total, 9u);
  EXPECT_EQ(std::get<TraceDumpRespBody>(f.body).start, 2u);
  EXPECT_EQ(std::get<TraceDumpRespBody>(f.body).realtime_offset_ns, -123456789);
  ASSERT_EQ(std::get<TraceDumpRespBody>(f.body).records.size(), 2u);
  EXPECT_EQ(std::get<TraceDumpRespBody>(f.body).records[0].ts_ns, 1000u);
  EXPECT_EQ(std::get<TraceDumpRespBody>(f.body).records[0].thread, 3u);
  EXPECT_EQ(std::get<TraceDumpRespBody>(f.body).records[0].ev,
            obs::TraceEvent::kAppendEnqueue);
  EXPECT_EQ(std::get<TraceDumpRespBody>(f.body).records[0].a, 41u);
  EXPECT_EQ(std::get<TraceDumpRespBody>(f.body).records[0].b, 42u);
  EXPECT_EQ(std::get<TraceDumpRespBody>(f.body).records[0].trace_lo, 0xAAAAu);
  EXPECT_EQ(std::get<TraceDumpRespBody>(f.body).records[0].trace_hi, 0u);
  EXPECT_EQ(std::get<TraceDumpRespBody>(f.body).records[1].ev,
            obs::TraceEvent::kBatchSeal);
  EXPECT_EQ(std::get<TraceDumpRespBody>(f.body).records[1].trace_hi, 0xBBBBu);
}

TEST(TraceFrame, EmptyPageRoundTrip) {
  // A scrape of idle rings answers total=0 with no records; the 20-byte
  // fixed part alone is a complete page.
  TraceDumpRespBody body;
  std::vector<std::uint8_t> buf;
  encode_trace_dump_response(buf, Status::kOk, 1, body);
  const auto frames = decode_all(buf);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(std::get<TraceDumpRespBody>(frames[0].body).total, 0u);
  EXPECT_TRUE(std::get<TraceDumpRespBody>(frames[0].body).records.empty());
}

TEST(TraceFrame, RecordWireSizeMatchesEncoding) {
  TraceDumpRespBody body;
  body.total = 1;
  body.records.push_back(record(7, obs::TraceEvent::kSlotDecide, 1, 2));
  std::vector<std::uint8_t> buf;
  encode_trace_dump_response(buf, Status::kOk, 1, body);
  // frame = u32 len | 12-byte header | u32 total | u32 start
  //         | i64 offset | u32 count | the one 45-byte record
  EXPECT_EQ(buf.size(), 4 + kHeaderBytes + 20 + kTraceRecordWireBytes);
}

TEST(TraceFrame, FullPageFitsThePayloadCap) {
  // The server's page size is derived from kMaxPayloadBytes; a full page
  // must encode without tripping the payload cap.
  constexpr std::uint32_t kPage = static_cast<std::uint32_t>(
      (kMaxPayloadBytes - kHeaderBytes - 20) / kTraceRecordWireBytes);
  TraceDumpRespBody body;
  body.total = kPage;
  for (std::uint32_t i = 0; i < kPage; ++i) {
    body.records.push_back(
        record(i, obs::TraceEvent::kBatchApply, i + 1, i + 2));
  }
  std::vector<std::uint8_t> buf;
  encode_trace_dump_response(buf, Status::kOk, 1, body);
  const auto frames = decode_all(buf);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(std::get<TraceDumpRespBody>(frames[0].body).records.size(), kPage);
  EXPECT_LE(buf.size() - 4, kMaxPayloadBytes);
}

TEST(TraceFrame, TruncatedRecordRejected) {
  TraceDumpRespBody body;
  body.total = 1;
  body.records.push_back(record(9, obs::TraceEvent::kMirrorPush, 5, 5));
  std::vector<std::uint8_t> buf;
  encode_trace_dump_response(buf, Status::kOk, 3, body);
  // Clip the payload mid-record and expect the decoder to call the body
  // bad rather than read past the end.
  const std::size_t payload_len = buf.size() - 4 - 11;
  Response f;
  EXPECT_EQ(decode_response(buf.data() + 4, payload_len, f),
            DecodeResult::kBadBody);
}

TEST(TraceFrame, CountBeyondPayloadRejected) {
  TraceDumpRespBody body;
  body.total = 2;
  body.records.push_back(record(9, obs::TraceEvent::kBatchPush, 5, 6));
  std::vector<std::uint8_t> buf;
  encode_trace_dump_response(buf, Status::kOk, 4, body);
  // Corrupt the count field (after total, start, and the i64 offset) to
  // claim a second record that is not there.
  const std::size_t count_at = 4 + kHeaderBytes + 16;
  buf[count_at] = 2;
  Response f;
  EXPECT_EQ(decode_response(buf.data() + 4, buf.size() - 4, f),
            DecodeResult::kBadBody);
}

TEST(TraceFrame, CountBombRejectedBeforeReserve) {
  // A minimal 20-byte response body claiming count=0xFFFFFFFF must be
  // rejected by arithmetic, not by attempting a ~190 GB reserve() whose
  // bad_alloc would escape the client IO loop.
  TraceDumpRespBody body;
  std::vector<std::uint8_t> buf;
  encode_trace_dump_response(buf, Status::kOk, 4, body);
  const std::size_t count_at = 4 + kHeaderBytes + 16;
  buf[count_at] = 0xFF;
  buf[count_at + 1] = 0xFF;
  buf[count_at + 2] = 0xFF;
  buf[count_at + 3] = 0xFF;
  Response f;
  EXPECT_EQ(decode_response(buf.data() + 4, buf.size() - 4, f),
            DecodeResult::kBadBody);
}

TEST(TraceFrame, AppendRequestCarriesTraceId) {
  AppendReqBody req;
  req.gid = 7;
  req.client = 11;
  req.seq = 13;
  req.command = 17;
  req.trace = 0xDEADBEEFCAFEF00DULL;
  std::vector<std::uint8_t> buf;
  encode_fixed(buf, MsgType::kAppend, Status::kOk, /*req_id=*/2, req);
  const auto frames = test::requests(buf);
  ASSERT_EQ(frames.size(), 1u);
  const AppendReqBody& got = std::get<AppendReqBody>(frames[0].body);
  EXPECT_EQ(got.trace, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(got.command, 17u);
}

TEST(TraceFrame, AppendResponseEchoesTraceId) {
  AppendRespBody resp;
  resp.gid = 7;
  resp.index = 99;
  resp.leader = 1;
  resp.epoch = 3;
  resp.trace = 0x12345678u;
  std::vector<std::uint8_t> buf;
  encode_fixed(buf, MsgType::kAppend, Status::kOk, /*req_id=*/2, resp);
  const auto frames = decode_all(buf);
  ASSERT_EQ(frames.size(), 1u);
  const AppendRespBody& got = std::get<AppendRespBody>(frames[0].body);
  EXPECT_EQ(got.trace, 0x12345678u);
  EXPECT_EQ(got.index, 99u);
}

TEST(TraceFrame, CommitEventCarriesTraceId) {
  std::vector<std::uint8_t> buf;
  encode_fixed(buf, MsgType::kCommitEvent, Status::kOk, /*req_id=*/0,
               CommitBody{/*gid=*/5, /*index=*/42, /*value=*/777,
                          /*trace=*/0xFEEDu});
  const auto frames = decode_all(buf);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, MsgType::kCommitEvent);
  const CommitBody& got = std::get<CommitBody>(frames[0].body);
  EXPECT_EQ(got.index, 42u);
  EXPECT_EQ(got.value, 777u);
  EXPECT_EQ(got.trace, 0xFEEDu);
}

}  // namespace
}  // namespace omega::net
