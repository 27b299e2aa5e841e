// Seeded random-bytes decode loop over both role decoders: random
// payloads plus every truncation and single-bit flip of a valid frame of
// each (type, role). A decode must never crash and must never hand back
// more records than the body's length can carry (no allocation a short
// frame did not pay for); an intact frame decodes only in the roles its
// type has.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <utility>

#include "frame_codec.h"
#include "net/frame.h"

namespace omega::net {
namespace {

using test::Bytes;

/// Every decoded vector fits the body it came from, record by record.
struct FitsBody {
  std::size_t body;

  bool metrics(const std::vector<obs::MetricSample>& v) const {
    std::size_t bytes = 0;
    for (const obs::MetricSample& m : v) bytes += metrics_record_wire_size(m);
    return bytes <= body;
  }
  bool operator()(const RegPushBody& b) const {
    return b.cells.size() * 12 <= body;
  }
  bool operator()(const ReadLogRespBody& b) const {
    return b.entries.size() * 8 <= body;
  }
  bool operator()(const MetricsRespBody& b) const { return metrics(b.metrics); }
  bool operator()(const MetricsEventBody& b) const {
    return metrics(b.metrics);
  }
  bool operator()(const TraceDumpRespBody& b) const {
    return b.records.size() * kTraceRecordWireBytes <= body;
  }
  bool operator()(const HealthRespBody& b) const {
    std::size_t bytes = 0;
    for (const HealthRuleWire& r : b.firing) {
      bytes += 3 + r.name.size() + r.reason.size();
    }
    return bytes <= body;
  }
  template <class Fixed>
  bool operator()(const Fixed&) const {
    return true;
  }
};

/// kOk results, so each loop provably reaches the body decoders.
std::uint64_t g_decoded = 0;

void check_both_roles(const std::uint8_t* data, std::size_t len) {
  const std::size_t body = len > kHeaderBytes ? len - kHeaderBytes : 0;
  Request req;
  if (decode_request(data, len, req) == DecodeResult::kOk) {
    ++g_decoded;
    ASSERT_TRUE(std::visit(FitsBody{body}, req.body));
  }
  Response resp;
  if (decode_response(data, len, resp) == DecodeResult::kOk) {
    ++g_decoded;
    ASSERT_TRUE(std::visit(FitsBody{body}, resp.body));
  }
}

TEST(FrameFuzz, RandomPayloadsDecodeOrAreRefused) {
  std::mt19937_64 rng(0x5EED0F0E);
  Bytes payload;
  g_decoded = 0;
  constexpr int kInputs = 1'000'000;
  for (int i = 0; i < kInputs; ++i) {
    // Mostly short bodies behind a valid header, so the body decoders
    // (not just the magic check) take the hits; sometimes anything.
    const std::size_t len =
        (rng() % 8 == 0) ? rng() % (kMaxPayloadBytes + 1) : rng() % 96;
    payload.resize(len);
    for (std::uint8_t& b : payload) b = static_cast<std::uint8_t>(rng());
    if (len >= 3 && rng() % 16 != 0) {
      payload[0] = kMagic;
      payload[1] = kVersion;
      payload[2] = static_cast<std::uint8_t>(rng() % 24);
    }
    // Small counts make the count-prefixed bodies consistent more often.
    if (len > kHeaderBytes + 20 && rng() % 2 == 0) {
      const std::size_t at = kHeaderBytes + rng() % 21;
      payload[at] = static_cast<std::uint8_t>(rng() % 4);
      for (std::size_t k = 1; k < 4 && at + k < len; ++k) payload[at + k] = 0;
    }
    check_both_roles(payload.data(), payload.size());
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(g_decoded, 0u);
}

/// The (type, is-request) pairs the protocol has, read off the corpus.
std::set<std::pair<std::uint8_t, bool>> protocol_roles() {
  std::set<std::pair<std::uint8_t, bool>> roles;
  for (const test::Shape& shape : test::all_shapes()) {
    Bytes frame;
    shape.encode(frame, Status::kOk);
    roles.emplace(frame[4 + 2], shape.request);
  }
  return roles;
}

TEST(FrameFuzz, TruncationsAndBitFlipsOfEveryValidFrame) {
  g_decoded = 0;
  std::size_t inputs = 0;
  const auto roles = protocol_roles();
  for (const test::Shape& shape : test::all_shapes()) {
    SCOPED_TRACE(shape.name);
    Bytes frame;
    shape.encode(frame, Status::kOk);
    const Bytes payload(frame.begin() + 4, frame.end());
    // Intact, the frame decodes in its own role to its own body, and in
    // the other role only where its type has that role too.
    const std::uint8_t type = payload[2];
    Request req;
    const bool as_request = decode_request(payload.data(), payload.size(),
                                           req) == DecodeResult::kOk;
    Response resp;
    const bool as_response = decode_response(payload.data(), payload.size(),
                                             resp) == DecodeResult::kOk;
    ASSERT_TRUE(shape.request ? as_request : as_response);
    EXPECT_EQ(shape.request ? req.body.index() : resp.body.index(),
              shape.alternative);
    EXPECT_TRUE(!as_request || roles.count({type, true}) == 1);
    EXPECT_TRUE(!as_response || roles.count({type, false}) == 1);
    for (std::size_t len = 0; len <= payload.size(); ++len) {
      check_both_roles(payload.data(), len);
      ++inputs;
      if (HasFatalFailure()) return;
    }
    Bytes flipped = payload;
    for (std::size_t bit = 0; bit < payload.size() * 8; ++bit) {
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      check_both_roles(flipped.data(), flipped.size());
      flipped[bit / 8] = payload[bit / 8];
      ++inputs;
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(inputs, 10'000u);
  EXPECT_GT(g_decoded, 0u);
}

}  // namespace
}  // namespace omega::net
