// Wire codec (net/frame.h): one layout per (type, role) for every status,
// round-trips of each body, stream reassembly under arbitrary
// fragmentation, and rejection of malformed, misrouted or oversized input.
#include "net/frame.h"

#include <gtest/gtest.h>

#include "frame_codec.h"

namespace omega::net {
namespace {

using test::Bytes;
using test::requests;
using test::responses;

/// Re-stamps the length prefix of a single frame after its payload grew
/// or shrank.
void restamp(Bytes& frame) {
  const std::uint32_t n = static_cast<std::uint32_t>(frame.size() - 4);
  for (int i = 0; i < 4; ++i) {
    frame[i] = static_cast<std::uint8_t>(n >> (8 * i));
  }
}

DecodeResult decode_as(bool request, const Bytes& frame, std::size_t& alt) {
  if (request) {
    Request r;
    const DecodeResult res = test::decode_as_request(frame, r);
    alt = r.body.index();
    return res;
  }
  Response r;
  const DecodeResult res = test::decode_as_response(frame, r);
  alt = r.body.index();
  return res;
}

TEST(Frame, EveryTypeRoleAndStatusDecodesAtExactlyItsLength) {
  // The strict decoder closes a connection on any body it refuses, so the
  // encoder and decoder must agree on every (type, role, status): the
  // encoded body decodes at its length, one byte less or more is kBadBody.
  for (const test::Shape& shape : test::all_shapes()) {
    const std::vector<Status> statuses =
        shape.fixed_status ? std::vector<Status>{Status::kOk}
                           : test::all_statuses();
    for (const Status s : statuses) {
      SCOPED_TRACE(shape.name + " status " +
                   std::to_string(static_cast<int>(s)));
      Bytes frame;
      shape.encode(frame, s);
      std::size_t alt = 0;
      ASSERT_EQ(decode_as(shape.request, frame, alt), DecodeResult::kOk);
      EXPECT_EQ(alt, shape.alternative);

      Bytes longer = frame;
      longer.push_back(0);
      restamp(longer);
      EXPECT_EQ(decode_as(shape.request, longer, alt), DecodeResult::kBadBody);

      if (frame.size() - 4 > kHeaderBytes) {  // an empty body has no -1
        Bytes shorter(frame.begin(), frame.end() - 1);
        restamp(shorter);
        EXPECT_EQ(decode_as(shape.request, shorter, alt),
                  DecodeResult::kBadBody);
      }
    }
  }
}

TEST(Frame, MisroutedRolesAreRefused) {
  // A request read by a client (or an answer read by a server) is a
  // broken peer, not a frame to guess at.
  Bytes append;
  encode_fixed(append, MsgType::kAppend, Status::kOk, 1,
               AppendReqBody{1, 2, 3, 4, 5});
  Response resp;
  EXPECT_EQ(test::decode_as_response(append, resp), DecodeResult::kBadBody);

  Bytes read;
  encode_fixed(read, MsgType::kRead, Status::kLeaseRead, 1, ReadRespBody{});
  Request req;
  EXPECT_EQ(test::decode_as_request(read, req), DecodeResult::kBadBody);

  Bytes event;
  encode_fixed(event, MsgType::kEvent, Status::kOk, 0, ViewBody{});
  EXPECT_EQ(test::decode_as_request(event, req), DecodeResult::kBadBody)
      << "pushes have no request role";
  Bytes push;
  const RegCellUpdate cell{1, 2};
  encode_reg_push(push, 1, 1, &cell, 1);
  EXPECT_EQ(test::decode_as_response(push, resp), DecodeResult::kBadBody);
}

TEST(Frame, VersionOneHeaderIsBadMagic) {
  Bytes buf;
  encode_fixed(buf, MsgType::kLeader, Status::kOk, 1, GidBody{1});
  buf[5] = 1;  // a v1 peer
  Request req;
  EXPECT_EQ(test::decode_as_request(buf, req), DecodeResult::kBadMagic);
  Response resp;
  EXPECT_EQ(test::decode_as_response(buf, resp), DecodeResult::kBadMagic);
}

TEST(Frame, LeaderRequestRoundTrip) {
  Bytes buf;
  encode_fixed(buf, MsgType::kLeader, Status::kOk, /*req_id=*/42, GidBody{7});
  const auto frames = requests(buf);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, MsgType::kLeader);
  EXPECT_EQ(frames[0].header.status, Status::kOk);
  EXPECT_EQ(frames[0].header.req_id, 42u);
  EXPECT_EQ(std::get<GidBody>(frames[0].body).gid, 7u);
}

TEST(Frame, ViewResponseRoundTrip) {
  Bytes buf;
  encode_fixed(buf, MsgType::kLeader, Status::kOk, 9,
               ViewBody{0xdeadbeefull, ProcessId{2}, 0x1234567890ull});
  const auto frames = responses(buf);
  ASSERT_EQ(frames.size(), 1u);
  const ViewBody& v = std::get<ViewBody>(frames[0].body);
  EXPECT_EQ(v.gid, 0xdeadbeefull);
  EXPECT_EQ(v.leader, 2u);
  EXPECT_EQ(v.epoch, 0x1234567890ull);
}

TEST(Frame, NoLeaderSentinelSurvivesTheWire) {
  Bytes buf;
  encode_fixed(buf, MsgType::kEvent, Status::kOk, 0,
               ViewBody{3, kNoProcess, 17});
  const auto frames = responses(buf);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(std::get<ViewBody>(frames[0].body).leader, kNoProcess);
  EXPECT_EQ(std::get<ViewBody>(frames[0].body).epoch, 17u);
}

TEST(Frame, PingRoundTrip) {
  Bytes buf;
  encode_header_only(buf, MsgType::kPing, Status::kOk, 1);
  const auto frames = requests(buf);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.type, MsgType::kPing);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(frames[0].body));
}

TEST(Frame, ByteAtATimeReassembly) {
  // TCP may deliver any fragmentation; the decoder must reassemble frames
  // fed one byte at a time, across frame boundaries.
  Bytes buf;
  for (std::uint64_t i = 0; i < 5; ++i) {
    encode_fixed(buf, MsgType::kLeader, Status::kOk, i, GidBody{i * 10});
  }
  const auto frames = requests(buf, 1);
  ASSERT_EQ(frames.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(frames[i].header.req_id, i);
    EXPECT_EQ(std::get<GidBody>(frames[i].body).gid, i * 10);
  }
}

TEST(Frame, DecoderCompactionKeepsLongStreamsBounded) {
  // A long-lived connection must not grow the buffer without bound: after
  // many consumed frames the decoder compacts and keeps decoding right.
  Bytes one;
  encode_fixed(one, MsgType::kLeader, Status::kOk, 7, GidBody{7});
  FrameDecoder dec;
  const std::uint8_t* payload = nullptr;
  std::size_t len = 0;
  for (int i = 0; i < 10000; ++i) {
    dec.feed(one.data(), one.size());
    ASSERT_TRUE(dec.next(payload, len));
    Request r;
    ASSERT_EQ(decode_request(payload, len, r), DecodeResult::kOk);
    ASSERT_EQ(std::get<GidBody>(r.body).gid, 7u);
    EXPECT_FALSE(dec.next(payload, len));
  }
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Frame, RejectsBadMagicAndVersion) {
  Bytes buf;
  encode_header_only(buf, MsgType::kPing, Status::kOk, 1);
  Request r;
  buf[4] ^= 0xff;  // magic
  EXPECT_EQ(test::decode_as_request(buf, r), DecodeResult::kBadMagic);
  buf[4] ^= 0xff;
  buf[5] = kVersion + 1;  // future version: reject loudly
  EXPECT_EQ(test::decode_as_request(buf, r), DecodeResult::kBadMagic);
}

TEST(Frame, RejectsTruncatedHeaderAndBody) {
  Request r;
  const std::uint8_t short_payload[3] = {kMagic, kVersion, 1};
  EXPECT_EQ(decode_request(short_payload, sizeof short_payload, r),
            DecodeResult::kBadLength);

  // LEADER with a 4-byte body (gid needs 8).
  Bytes buf;
  encode_fixed(buf, MsgType::kLeader, Status::kOk, 1, GidBody{1});
  EXPECT_EQ(test::decode_as_request(buf, r, /*clip=*/4),
            DecodeResult::kBadBody);
}

TEST(Frame, EventWithoutViewIsMalformed) {
  // EVENT frames must carry the full view; a gid-only event is a bug.
  Bytes buf;
  encode_fixed(buf, MsgType::kEvent, Status::kOk, 0, GidBody{5});
  Response r;
  EXPECT_EQ(test::decode_as_response(buf, r), DecodeResult::kBadBody);
}

TEST(Frame, UnknownTypeDecodesHeaderOnly) {
  // Including 5, the retired STATS: a server answers kUnsupported.
  for (const std::uint8_t type : {0, 5, 200}) {
    Bytes buf;
    encode_fixed(buf, static_cast<MsgType>(type), Status::kOk, 77, GidBody{1});
    Request r;
    EXPECT_EQ(test::decode_as_request(buf, r), DecodeResult::kOk);
    EXPECT_EQ(r.header.req_id, 77u);
    EXPECT_TRUE(std::holds_alternative<std::monostate>(r.body));
    Bytes answer;
    encode_header_only(answer, static_cast<MsgType>(type),
                       Status::kUnsupported, 77);
    Response a;
    EXPECT_EQ(test::decode_as_response(answer, a), DecodeResult::kOk);
    EXPECT_EQ(a.header.status, Status::kUnsupported);
  }
}

TEST(Frame, OversizedLengthPrefixMarksStreamCorrupt) {
  FrameDecoder dec;
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  const std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(huge), static_cast<std::uint8_t>(huge >> 8),
      static_cast<std::uint8_t>(huge >> 16),
      static_cast<std::uint8_t>(huge >> 24)};
  dec.feed(prefix, sizeof prefix);
  const std::uint8_t* payload = nullptr;
  std::size_t len = 0;
  EXPECT_FALSE(dec.next(payload, len));
  EXPECT_TRUE(dec.corrupt());
  // Corrupt is terminal: further bytes change nothing.
  dec.feed(prefix, sizeof prefix);
  EXPECT_FALSE(dec.next(payload, len));
}

TEST(Frame, AppendRequestAndResponseRoundTrip) {
  Bytes req_buf;
  AppendReqBody req;
  req.gid = 9;
  req.client = 0xAABBCCDDEE;
  req.seq = 77;
  req.command = 65000;
  encode_fixed(req_buf, MsgType::kAppend, Status::kOk, 5, req);
  const auto reqs = requests(req_buf, 3);  // odd chunking on purpose
  ASSERT_EQ(reqs.size(), 1u);
  const AppendReqBody& a = std::get<AppendReqBody>(reqs[0].body);
  EXPECT_EQ(a.gid, 9u);
  EXPECT_EQ(a.client, 0xAABBCCDDEEull);
  EXPECT_EQ(a.seq, 77u);
  EXPECT_EQ(a.command, 65000u);

  Bytes resp_buf;
  AppendRespBody resp;
  resp.gid = 9;
  resp.index = 123456789;
  resp.leader = 2;
  resp.epoch = 42;
  encode_fixed(resp_buf, MsgType::kAppend, Status::kOk, 5, resp);
  const auto resps = responses(resp_buf, 3);
  ASSERT_EQ(resps.size(), 1u);
  const AppendRespBody& b = std::get<AppendRespBody>(resps[0].body);
  EXPECT_EQ(b.gid, 9u);
  EXPECT_EQ(b.index, 123456789u);
  EXPECT_EQ(b.leader, 2u);
  EXPECT_EQ(b.epoch, 42u);
}

TEST(Frame, NotLeaderResponseCarriesTheRedirectHint) {
  Bytes buf;
  AppendRespBody resp;
  resp.gid = 4;
  resp.leader = kNoProcess;
  resp.epoch = 17;
  encode_fixed(buf, MsgType::kAppend, Status::kNotLeader, 8, resp);
  const auto frames = responses(buf);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.status, Status::kNotLeader);
  EXPECT_EQ(std::get<AppendRespBody>(frames[0].body).leader, kNoProcess);
  EXPECT_EQ(std::get<AppendRespBody>(frames[0].body).epoch, 17u);
}

TEST(Frame, ReadLogRoundTrip) {
  Bytes req_buf;
  ReadLogReqBody req;
  req.gid = 2;
  req.from = 100;
  req.max = 3;
  encode_fixed(req_buf, MsgType::kReadLog, Status::kOk, 6, req);
  const auto reqs = requests(req_buf, 7);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(std::get<ReadLogReqBody>(reqs[0].body).from, 100u);
  EXPECT_EQ(std::get<ReadLogReqBody>(reqs[0].body).max, 3u);

  Bytes resp_buf;
  encode_readlog_response(resp_buf, Status::kOk, 6, 2, /*commit_index=*/103,
                          {11, 22, 33});
  const auto resps = responses(resp_buf, 7);
  ASSERT_EQ(resps.size(), 1u);
  const ReadLogRespBody& page = std::get<ReadLogRespBody>(resps[0].body);
  EXPECT_EQ(page.commit_index, 103u);
  ASSERT_EQ(page.entries.size(), 3u);
  EXPECT_EQ(page.entries[0], 11u);
  EXPECT_EQ(page.entries[2], 33u);
}

TEST(Frame, ReadLogErrorCarriesTheFullEmptyPage) {
  Bytes buf;
  encode_readlog_response(buf, Status::kUnknownGroup, 6, 2, 0, {});
  const auto frames = responses(buf);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.status, Status::kUnknownGroup);
  EXPECT_EQ(std::get<ReadLogRespBody>(frames[0].body).gid, 2u);
  EXPECT_TRUE(std::get<ReadLogRespBody>(frames[0].body).entries.empty());
}

TEST(Frame, CommitWatchAndEventRoundTrip) {
  Bytes req_buf;
  encode_fixed(req_buf, MsgType::kCommitWatch, Status::kOk, 3, GidBody{5});
  ASSERT_EQ(std::get<GidBody>(requests(req_buf)[0].body).gid, 5u);

  Bytes buf;
  encode_fixed(buf, MsgType::kCommitWatch, Status::kOk, 3,
               CommitSnapshotBody{5, /*commit_index=*/40});
  encode_fixed(buf, MsgType::kCommitEvent, Status::kOk, /*req_id=*/0,
               CommitBody{5, /*index=*/41, /*value=*/777});
  const auto frames = responses(buf, 1);  // byte-at-a-time
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(std::get<CommitSnapshotBody>(frames[0].body).commit_index, 40u);
  EXPECT_EQ(frames[1].header.type, MsgType::kCommitEvent);
  EXPECT_EQ(frames[1].header.req_id, 0u);
  EXPECT_EQ(std::get<CommitBody>(frames[1].body).index, 41u);
  EXPECT_EQ(std::get<CommitBody>(frames[1].body).value, 777u);
}

TEST(Frame, CommitEventWithoutFullBodyIsMalformed) {
  // Like EVENT: pushes must carry their complete body.
  Bytes buf;
  encode_fixed(buf, MsgType::kCommitEvent, Status::kOk, 0, GidBody{5});
  Response r;
  EXPECT_EQ(test::decode_as_response(buf, r), DecodeResult::kBadBody);
}

TEST(Frame, RegMirrorFramesRoundTrip) {
  // Mirror stream: HELLO and PUSH from the dialler, ACK from the acceptor.
  Bytes out;
  encode_fixed(out, MsgType::kRegHello, Status::kOk, /*req_id=*/1,
               RegHelloBody{/*node=*/2});
  const RegCellUpdate cells[3] = {{10, 100}, {11, 0}, {65535, 1ull << 40}};
  encode_reg_push(out, /*gid=*/42, /*seq=*/7, cells, 3);
  const auto sent = requests(out);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(std::get<RegHelloBody>(sent[0].body).node, 2u);
  EXPECT_EQ(sent[1].header.req_id, 0u) << "pushes are one-way";
  const RegPushBody& push = std::get<RegPushBody>(sent[1].body);
  EXPECT_EQ(push.gid, 42u);
  EXPECT_EQ(push.seq, 7u);
  ASSERT_EQ(push.cells.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(push.cells[i].cell, cells[i].cell);
    EXPECT_EQ(push.cells[i].value, cells[i].value);
  }

  Bytes back;
  encode_fixed(back, MsgType::kRegHello, Status::kOk, 1,
               RegHelloBody{/*node=*/0});
  encode_fixed(back, MsgType::kRegAck, Status::kOk, /*req_id=*/0,
               RegAckBody{/*seq=*/7});
  const auto got = responses(back);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(std::get<RegHelloBody>(got[0].body).node, 0u);
  EXPECT_EQ(std::get<RegAckBody>(got[1].body).seq, 7u);
}

TEST(Frame, RegPushRejectsOverAndUnderCountedBodies) {
  Bytes buf;
  const RegCellUpdate cells[2] = {{1, 2}, {3, 4}};
  encode_reg_push(buf, 1, 1, cells, 2);
  // Claim three cells but carry two: the count must be validated against
  // the body length, never trusted.
  buf[4 + kHeaderBytes + 16] = 3;
  Request r;
  EXPECT_EQ(test::decode_as_request(buf, r), DecodeResult::kBadBody);
  // A count above the frame cap is rejected outright.
  buf[4 + kHeaderBytes + 16] = static_cast<std::uint8_t>(255);
  buf[4 + kHeaderBytes + 17] = 1;  // 511 > kMaxPushCells
  EXPECT_EQ(test::decode_as_request(buf, r), DecodeResult::kBadBody);
  EXPECT_THROW(encode_reg_push(buf, 1, 1, cells, 0), std::exception);
}

TEST(Frame, SessionOpenRoundTripsBothRoles) {
  Bytes req_buf;
  encode_fixed(req_buf, MsgType::kSessionOpen, Status::kOk, /*req_id=*/9,
               SessionOpenReqBody{5, 1234567});
  const auto reqs = requests(req_buf);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(std::get<SessionOpenReqBody>(reqs[0].body).gid, 5u);
  EXPECT_EQ(std::get<SessionOpenReqBody>(reqs[0].body).client, 1234567u);

  Bytes resp_buf;
  encode_fixed(resp_buf, MsgType::kSessionOpen, Status::kOk, 9,
               SessionOpenRespBody{5, 30000000});
  encode_fixed(resp_buf, MsgType::kSessionOpen, Status::kSessionEvicted, 10,
               SessionOpenRespBody{5, 0});
  const auto resps = responses(resp_buf);
  ASSERT_EQ(resps.size(), 2u);
  EXPECT_EQ(std::get<SessionOpenRespBody>(resps[0].body).ttl_us, 30000000u);
  EXPECT_EQ(resps[1].header.status, Status::kSessionEvicted);
}

}  // namespace
}  // namespace omega::net
