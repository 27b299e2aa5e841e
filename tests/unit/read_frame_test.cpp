// READ wire coverage: request/response round-trips for every status the
// read path answers with, the exact-length rule of each role at every
// truncation, and hostile length prefixes.
#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "frame_codec.h"

namespace omega::net {
namespace {

ReadReqBody read_request(const std::vector<std::uint8_t>& buf) {
  Request r;
  EXPECT_EQ(test::decode_as_request(buf, r), DecodeResult::kOk);
  EXPECT_EQ(r.header.type, MsgType::kRead);
  return std::get<ReadReqBody>(r.body);
}

Response read_response(const std::vector<std::uint8_t>& buf) {
  Response r;
  EXPECT_EQ(test::decode_as_response(buf, r), DecodeResult::kOk);
  return r;
}

TEST(ReadFrame, RequestRoundTrip) {
  std::vector<std::uint8_t> buf;
  encode_fixed(buf, MsgType::kRead, Status::kOk, /*req_id=*/77,
               ReadReqBody{/*gid=*/9, /*key=*/0xBEEF, /*min_index=*/123});
  EXPECT_EQ(buf.size(), 4 + kHeaderBytes + 24);
  const ReadReqBody req = read_request(buf);
  EXPECT_EQ(req.gid, 9u);
  EXPECT_EQ(req.key, 0xBEEFu);
  EXPECT_EQ(req.min_index, 123u);
}

TEST(ReadFrame, ResponseRoundTripsEveryStatus) {
  // Every status the read path answers with carries the full 44-byte
  // body, so one length rule covers success, refusal, and errors alike.
  const Status statuses[] = {Status::kLeaseRead,    Status::kIndexRead,
                             Status::kOk,           Status::kNotLeader,
                             Status::kUnknownGroup, Status::kOverloaded};
  for (const Status s : statuses) {
    std::vector<std::uint8_t> buf;
    ReadRespBody body;
    body.gid = 4;
    body.key = 0x1234;
    body.index = 57;
    body.commit_index = 900;
    body.leader = ProcessId{2};
    body.epoch = 11;
    encode_fixed(buf, MsgType::kRead, s, /*req_id=*/5, body);
    EXPECT_EQ(buf.size(), 4 + kHeaderBytes + 44);
    const Response f = read_response(buf);
    EXPECT_EQ(f.header.status, s);
    const ReadRespBody& r = std::get<ReadRespBody>(f.body);
    EXPECT_EQ(r.gid, 4u);
    EXPECT_EQ(r.key, 0x1234u);
    EXPECT_EQ(r.index, 57u);
    EXPECT_EQ(r.commit_index, 900u);
    EXPECT_EQ(r.leader, 2u);
    EXPECT_EQ(r.epoch, 11u);
  }
}

TEST(ReadFrame, NeverAppliedKeyRidesAsIndexZero) {
  std::vector<std::uint8_t> buf;
  ReadRespBody body;
  body.gid = 1;
  body.key = 42;
  body.index = 0;  // the "never applied" sentinel (positions are +1)
  body.commit_index = 10;
  encode_fixed(buf, MsgType::kRead, Status::kLeaseRead, 1, body);
  EXPECT_EQ(std::get<ReadRespBody>(read_response(buf).body).index, 0u);
}

TEST(ReadFrame, TruncationBoundaries) {
  // Replay every truncated prefix of a full response body through both
  // decoders: a response decodes only at its 44 bytes, a request only at
  // 24 — a clipped answer is never half-read as a request.
  std::vector<std::uint8_t> full;
  ReadRespBody body;
  body.gid = 7;
  body.key = 0xABCD;
  body.index = 3;
  body.commit_index = 9;
  body.leader = ProcessId{1};
  body.epoch = 2;
  encode_fixed(full, MsgType::kRead, Status::kLeaseRead, 8, body);
  const std::uint8_t* payload = full.data() + 4;  // skip the length prefix
  for (std::size_t body_len = 0; body_len <= 44; ++body_len) {
    Response resp;
    EXPECT_EQ(decode_response(payload, kHeaderBytes + body_len, resp),
              body_len == 44 ? DecodeResult::kOk : DecodeResult::kBadBody)
        << body_len;
    Request req;
    EXPECT_EQ(decode_request(payload, kHeaderBytes + body_len, req),
              body_len == 24 ? DecodeResult::kOk : DecodeResult::kBadBody)
        << body_len;
  }
  Response resp;
  ASSERT_EQ(decode_response(payload, kHeaderBytes + 44, resp),
            DecodeResult::kOk);
  EXPECT_EQ(std::get<ReadRespBody>(resp.body).epoch, 2u);
}

TEST(ReadFrame, OversizedLengthPrefixMarksStreamCorrupt) {
  // A hostile peer announcing a giant READ cannot make the decoder
  // allocate: the stream is condemned at the length prefix.
  std::vector<std::uint8_t> buf;
  const std::uint32_t n = kMaxPayloadBytes + 1;
  buf.push_back(static_cast<std::uint8_t>(n));
  buf.push_back(static_cast<std::uint8_t>(n >> 8));
  buf.push_back(static_cast<std::uint8_t>(n >> 16));
  buf.push_back(static_cast<std::uint8_t>(n >> 24));
  buf.push_back(kMagic);
  FrameDecoder dec;
  dec.feed(buf.data(), buf.size());
  const std::uint8_t* payload = nullptr;
  std::size_t len = 0;
  EXPECT_FALSE(dec.next(payload, len));
  EXPECT_TRUE(dec.corrupt());
}

}  // namespace
}  // namespace omega::net
