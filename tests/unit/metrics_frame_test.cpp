// METRICS codec (net/frame.h): request/response round-trips with sparse
// histogram buckets and negative gauges, pagination arithmetic, and
// rejection of truncated records and count bombs.
#include "net/frame.h"

#include <gtest/gtest.h>

#include "frame_codec.h"

#include "common/check.h"

#include <string>
#include <vector>

namespace omega::net {
namespace {

std::vector<Response> decode_all(const std::vector<std::uint8_t>& bytes) {
  return test::responses(bytes);
}

obs::MetricSample counter_sample(std::string name, std::int64_t value) {
  obs::MetricSample m;
  m.name = std::move(name);
  m.kind = obs::MetricSample::Kind::kCounter;
  m.value = value;
  return m;
}

TEST(MetricsFrame, RequestRoundTrip) {
  std::vector<std::uint8_t> buf;
  encode_fixed(buf, MsgType::kMetrics, Status::kOk, /*req_id=*/7,
               PageReqBody{123});
  const auto frames = test::requests(buf);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, MsgType::kMetrics);
  EXPECT_EQ(frames[0].header.req_id, 7u);
  EXPECT_EQ(std::get<PageReqBody>(frames[0].body).start, 123u);
}

TEST(MetricsFrame, ResponseRoundTripAllKinds) {
  MetricsRespBody body;
  body.total = 5;
  body.start = 2;
  body.node = 2;  // endpoint-identity trailer
  body.metrics.push_back(counter_sample("net.frames.append", 80000));
  obs::MetricSample gauge;
  gauge.name = "test.negative_gauge";
  gauge.kind = obs::MetricSample::Kind::kGauge;
  gauge.value = -42;  // i64 survives the u64 wire field
  body.metrics.push_back(gauge);
  obs::MetricSample hist;
  hist.name = "smr.seal_to_decide_ns";
  hist.kind = obs::MetricSample::Kind::kHistogram;
  hist.value = 11;
  hist.sum = 987654;
  hist.buckets = {{10, 4}, {11, 6}, {63, 1}};  // sparse, gaps allowed
  body.metrics.push_back(hist);

  std::vector<std::uint8_t> buf;
  encode_metrics_response(buf, Status::kOk, /*req_id=*/9, body);
  const auto frames = decode_all(buf);
  ASSERT_EQ(frames.size(), 1u);
  const Response& f = frames[0];
  EXPECT_EQ(f.header.type, MsgType::kMetrics);
  EXPECT_EQ(f.header.status, Status::kOk);
  EXPECT_EQ(std::get<MetricsRespBody>(f.body).total, 5u);
  EXPECT_EQ(std::get<MetricsRespBody>(f.body).start, 2u);
  EXPECT_EQ(std::get<MetricsRespBody>(f.body).node, 2u);
  ASSERT_EQ(std::get<MetricsRespBody>(f.body).metrics.size(), 3u);
  EXPECT_EQ(std::get<MetricsRespBody>(f.body).metrics[0], body.metrics[0]);
  EXPECT_EQ(std::get<MetricsRespBody>(f.body).metrics[1], body.metrics[1]);
  EXPECT_EQ(std::get<MetricsRespBody>(f.body).metrics[2], body.metrics[2]);
}

TEST(MetricsFrame, EmptyPageRoundTrip) {
  // A scrape of an empty registry answers total=0 with no records; the
  // 16-byte body still decodes, node trailer included.
  MetricsRespBody body;
  std::vector<std::uint8_t> buf;
  encode_metrics_response(buf, Status::kOk, 1, body);
  const auto frames = decode_all(buf);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(std::get<MetricsRespBody>(frames[0].body).total, 0u);
  EXPECT_TRUE(std::get<MetricsRespBody>(frames[0].body).metrics.empty());
  EXPECT_EQ(std::get<MetricsRespBody>(frames[0].body).node,
            kNoNodeId);  // default trailer
}

TEST(MetricsFrame, RecordWireSizeMatchesEncoding) {
  obs::MetricSample hist;
  hist.name = "x.y";
  hist.kind = obs::MetricSample::Kind::kHistogram;
  hist.buckets = {{1, 2}, {3, 4}};
  MetricsRespBody body;
  body.total = 1;
  body.metrics.push_back(hist);
  std::vector<std::uint8_t> buf;
  encode_metrics_response(buf, Status::kOk, 1, body);
  // frame = u32 len | 12-byte header | u32 total | u32 start | u32 count
  //         | the one record | u32 node
  EXPECT_EQ(buf.size(),
            4 + kHeaderBytes + 12 + metrics_record_wire_size(hist) + 4);
}

TEST(MetricsFrame, TruncatedRecordRejected) {
  MetricsRespBody body;
  body.total = 1;
  body.metrics.push_back(counter_sample("truncate.me", 5));
  std::vector<std::uint8_t> buf;
  encode_metrics_response(buf, Status::kOk, 3, body);
  // Clip the payload mid-record, re-stamp the length prefix, and expect
  // the decoder to call the body bad rather than read past the end.
  const std::size_t payload_len = buf.size() - 4 - 6;
  Response f;
  EXPECT_EQ(decode_response(buf.data() + 4, payload_len, f),
            DecodeResult::kBadBody);
}

TEST(MetricsFrame, CountBeyondPayloadRejected) {
  MetricsRespBody body;
  body.total = 2;
  body.metrics.push_back(counter_sample("only.one", 1));
  std::vector<std::uint8_t> buf;
  encode_metrics_response(buf, Status::kOk, 4, body);
  // Corrupt the count field (third u32 after the header) to claim a
  // second record that is not there.
  const std::size_t count_at = 4 + kHeaderBytes + 8;
  buf[count_at] = 2;
  Response f;
  EXPECT_EQ(decode_response(buf.data() + 4, buf.size() - 4, f),
            DecodeResult::kBadBody);
}

TEST(MetricsFrame, CountBombRejectedBeforeReserve) {
  // A minimal 12-byte response body claiming count=0xFFFFFFFF must be
  // rejected by arithmetic, not by attempting a ~80 GB reserve() whose
  // bad_alloc would escape the server IO loop.
  MetricsRespBody body;
  std::vector<std::uint8_t> buf;
  encode_metrics_response(buf, Status::kOk, 4, body);
  const std::size_t count_at = 4 + kHeaderBytes + 8;
  buf[count_at] = 0xFF;
  buf[count_at + 1] = 0xFF;
  buf[count_at + 2] = 0xFF;
  buf[count_at + 3] = 0xFF;
  Response f;
  EXPECT_EQ(decode_response(buf.data() + 4, buf.size() - 4, f),
            DecodeResult::kBadBody);
}

TEST(MetricsFrame, LongNameRejectedAtEncode) {
  // Silent truncation would desync the scraped name from the registry
  // name (and collide distinct long names); the encoder refuses instead.
  MetricsRespBody body;
  body.total = 1;
  body.metrics.push_back(counter_sample(std::string(300, 'n'), 1));
  std::vector<std::uint8_t> buf;
  EXPECT_THROW(encode_metrics_response(buf, Status::kOk, 5, body),
               InvariantViolation);
}

}  // namespace
}  // namespace omega::net
