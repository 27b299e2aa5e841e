// Telemetry codec (net/frame.h): HEALTH round-trips with firing rules,
// METRICS_WATCH period round-trip, METRICS_EVENT page round-trip with
// req_id 0, truncation rejection, and count-bomb hardening on both
// wire-controlled counts.
#include "net/frame.h"

#include <gtest/gtest.h>

#include "frame_codec.h"

#include <string>
#include <vector>

namespace omega::net {
namespace {

std::vector<Response> decode_all(const std::vector<std::uint8_t>& bytes) {
  return test::responses(bytes);
}

TEST(HealthFrame, EmptyBodyIsTheRequestRole) {
  std::vector<std::uint8_t> buf;
  encode_header_only(buf, MsgType::kHealth, Status::kOk, /*req_id=*/3);
  const auto frames = test::requests(buf);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, MsgType::kHealth);
  EXPECT_EQ(frames[0].header.req_id, 3u);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(frames[0].body));
}

TEST(HealthFrame, ResponseRoundTripWithFiringRules) {
  HealthRespBody body;
  body.overall = 1;  // degraded
  body.ticks = 4242;
  body.rules_total = 7;
  body.firing.push_back(
      HealthRuleWire{1, "mirror-push-lag", "p99 612ms over 5s"});
  body.firing.push_back(HealthRuleWire{2, "watchdog", "fired 1x in 10s"});
  std::vector<std::uint8_t> buf;
  encode_health_response(buf, Status::kOk, /*req_id=*/9, body);
  const auto frames = decode_all(buf);
  ASSERT_EQ(frames.size(), 1u);
  const Response& f = frames[0];
  EXPECT_EQ(f.header.type, MsgType::kHealth);
  EXPECT_EQ(f.header.status, Status::kOk);
  EXPECT_EQ(std::get<HealthRespBody>(f.body).overall, 1);
  EXPECT_EQ(std::get<HealthRespBody>(f.body).ticks, 4242u);
  EXPECT_EQ(std::get<HealthRespBody>(f.body).rules_total, 7);
  ASSERT_EQ(std::get<HealthRespBody>(f.body).firing.size(), 2u);
  EXPECT_EQ(std::get<HealthRespBody>(f.body).firing[0].status, 1);
  EXPECT_EQ(std::get<HealthRespBody>(f.body).firing[0].name, "mirror-push-lag");
  EXPECT_EQ(std::get<HealthRespBody>(f.body).firing[0].reason,
            "p99 612ms over 5s");
  EXPECT_EQ(std::get<HealthRespBody>(f.body).firing[1].status, 2);
  EXPECT_EQ(std::get<HealthRespBody>(f.body).firing[1].name, "watchdog");
}

TEST(HealthFrame, AllOkResponseCarriesNoRules) {
  HealthRespBody body;
  body.overall = 0;
  body.ticks = 12;
  body.rules_total = 7;
  std::vector<std::uint8_t> buf;
  encode_health_response(buf, Status::kOk, 1, body);
  const auto frames = decode_all(buf);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(std::get<HealthRespBody>(frames[0].body).firing.empty());
  EXPECT_EQ(std::get<HealthRespBody>(frames[0].body).rules_total, 7);
}

TEST(HealthFrame, TruncatedRuleRejected) {
  HealthRespBody body;
  body.overall = 1;
  body.firing.push_back(HealthRuleWire{1, "commit-stall", "no commits"});
  std::vector<std::uint8_t> buf;
  encode_health_response(buf, Status::kOk, 2, body);
  // Clip mid-reason: the decoder must flag the body, not read past it.
  const std::size_t payload_len = buf.size() - 4 - 5;
  Response f;
  EXPECT_EQ(decode_response(buf.data() + 4, payload_len, f),
            DecodeResult::kBadBody);
}

TEST(HealthFrame, FiringCountBombRejected) {
  // An 11-byte all-ok response whose nfiring byte claims 255 rules must
  // be rejected by arithmetic before any reserve().
  HealthRespBody body;
  std::vector<std::uint8_t> buf;
  encode_health_response(buf, Status::kOk, 4, body);
  buf[4 + kHeaderBytes + 10] = 0xFF;  // nfiring
  Response f;
  EXPECT_EQ(decode_response(buf.data() + 4, buf.size() - 4, f),
            DecodeResult::kBadBody);
}

TEST(MetricsWatchFrame, RequestAndResponseRoundTrip) {
  std::vector<std::uint8_t> req;
  encode_header_only(req, MsgType::kMetricsWatch, Status::kOk, /*req_id=*/5);
  const auto reqf = test::requests(req);
  ASSERT_EQ(reqf.size(), 1u);
  EXPECT_EQ(reqf[0].header.type, MsgType::kMetricsWatch);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(reqf[0].body));

  std::vector<std::uint8_t> resp;
  encode_fixed(resp, MsgType::kMetricsWatch, Status::kOk, /*req_id=*/5,
               MetricsWatchRespBody{/*period_ms=*/250});
  const auto respf = decode_all(resp);
  ASSERT_EQ(respf.size(), 1u);
  EXPECT_EQ(respf[0].header.req_id, 5u);
  EXPECT_EQ(std::get<MetricsWatchRespBody>(respf[0].body).period_ms, 250u);
}

obs::MetricSample event_sample() {
  obs::MetricSample m;
  m.name = "smr.queue_pending";
  m.kind = obs::MetricSample::Kind::kGauge;
  m.value = 17;
  return m;
}

TEST(MetricsEventFrame, PageRoundTrip) {
  MetricsEventBody body;
  body.tick = 77;
  body.health = 1;
  body.total = 40;
  body.start = 20;
  body.metrics.push_back(event_sample());
  std::vector<std::uint8_t> buf;
  encode_metrics_event(buf, body);
  const auto frames = decode_all(buf);
  ASSERT_EQ(frames.size(), 1u);
  const Response& f = frames[0];
  EXPECT_EQ(f.header.type, MsgType::kMetricsEvent);
  EXPECT_EQ(f.header.req_id, 0u);  // pushes answer nothing
  EXPECT_EQ(std::get<MetricsEventBody>(f.body).tick, 77u);
  EXPECT_EQ(std::get<MetricsEventBody>(f.body).health, 1);
  EXPECT_EQ(std::get<MetricsEventBody>(f.body).total, 40u);
  EXPECT_EQ(std::get<MetricsEventBody>(f.body).start, 20u);
  ASSERT_EQ(std::get<MetricsEventBody>(f.body).metrics.size(), 1u);
  EXPECT_EQ(std::get<MetricsEventBody>(f.body).metrics[0], body.metrics[0]);
}

TEST(MetricsEventFrame, EmptyHeartbeatPageRoundTrips) {
  // A tick with zero metrics still ships one page: subscribers key their
  // liveness on the tick cadence, not on the record count.
  MetricsEventBody body;
  body.tick = 9;
  std::vector<std::uint8_t> buf;
  encode_metrics_event(buf, body);
  const auto frames = decode_all(buf);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(std::get<MetricsEventBody>(frames[0].body).tick, 9u);
  EXPECT_TRUE(std::get<MetricsEventBody>(frames[0].body).metrics.empty());
}

TEST(MetricsEventFrame, TruncatedRecordRejected) {
  MetricsEventBody body;
  body.total = 1;
  body.metrics.push_back(event_sample());
  std::vector<std::uint8_t> buf;
  encode_metrics_event(buf, body);
  const std::size_t payload_len = buf.size() - 4 - 6;
  Response f;
  EXPECT_EQ(decode_response(buf.data() + 4, payload_len, f),
            DecodeResult::kBadBody);
}

TEST(MetricsEventFrame, CountBombRejectedBeforeReserve) {
  MetricsEventBody body;
  std::vector<std::uint8_t> buf;
  encode_metrics_event(buf, body);
  // Corrupt the count field (after u64 tick | u8 health | u32 total |
  // u32 start) to claim ~4 billion records in a 21-byte body.
  const std::size_t count_at = 4 + kHeaderBytes + 8 + 1 + 4 + 4;
  buf[count_at] = 0xFF;
  buf[count_at + 1] = 0xFF;
  buf[count_at + 2] = 0xFF;
  buf[count_at + 3] = 0xFF;
  Response f;
  EXPECT_EQ(decode_response(buf.data() + 4, buf.size() - 4, f),
            DecodeResult::kBadBody);
}

TEST(MetricsEventFrame, ShortBodyRejected) {
  MetricsEventBody body;
  std::vector<std::uint8_t> buf;
  encode_metrics_event(buf, body);
  // A push shorter than its fixed prefix has no valid interpretation.
  Response f;
  EXPECT_EQ(decode_response(buf.data() + 4, kHeaderBytes + 10, f),
            DecodeResult::kBadBody);
}

}  // namespace
}  // namespace omega::net
