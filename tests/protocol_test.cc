// Copyright 2026 The ARSP Authors.
//
// Wire-protocol unit tests, no sockets needed for the codec half: every
// message round-trips encode → decode bit-exactly, truncated and hostile
// payloads are rejected without overreads or allocations, and the fd-level
// framing (over a socketpair) enforces magic, version, and the max-frame
// guard.

#include "src/net/protocol.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>

namespace arsp {
namespace net {
namespace {

TEST(WireCodecTest, PrimitivesRoundTripLittleEndian) {
  WireWriter w;
  w.U8(0xAB);
  w.U16(0x1234);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(-1234567890123456789ll);
  w.Bool(true);
  w.F64(3.141592653589793);
  w.F64(-0.0);
  w.Str("hello");
  w.Str("");  // empty strings are legal

  // Spot-check the layout is little-endian: the U16 bytes follow the U8.
  const std::string& bytes = w.bytes();
  EXPECT_EQ(static_cast<uint8_t>(bytes[1]), 0x34);
  EXPECT_EQ(static_cast<uint8_t>(bytes[2]), 0x12);

  WireReader r(bytes);
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.I64(), -1234567890123456789ll);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.F64(), 3.141592653589793);
  EXPECT_TRUE(std::signbit(r.F64()));
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.Finish().ok()) << r.Finish().ToString();
}

TEST(WireCodecTest, ReaderRejectsTruncationWithStickyError) {
  WireWriter w;
  w.U32(7);
  WireReader r(w.bytes());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u);  // past the end: zero value, sticky error
  EXPECT_FALSE(r.status().ok());
  EXPECT_EQ(r.Str(), "");  // still failed, still safe
  EXPECT_FALSE(r.Finish().ok());
}

TEST(WireCodecTest, FinishRejectsTrailingGarbage) {
  WireWriter w;
  w.U8(1);
  w.U8(2);
  WireReader r(w.bytes());
  EXPECT_EQ(r.U8(), 1);
  EXPECT_FALSE(r.Finish().ok());  // one byte unconsumed
}

TEST(WireCodecTest, HostileVectorCountsAreRejectedBeforeAllocation) {
  // A 4-byte payload claiming 2^31 doubles must fail the remaining-bytes
  // check instead of attempting a 16 GiB allocation.
  WireWriter w;
  w.U32(0x80000000u);
  {
    WireReader r(w.bytes());
    r.F64Vec();
    EXPECT_FALSE(r.status().ok());
  }
  {
    WireReader r(w.bytes());
    r.I32Vec();
    EXPECT_FALSE(r.status().ok());
  }
  {
    WireReader r(w.bytes());
    r.StrVec();
    EXPECT_FALSE(r.status().ok());
  }
  // A string length past the end of the payload likewise.
  WireWriter s;
  s.U32(1000);
  WireReader r(s.bytes());
  r.Str();
  EXPECT_FALSE(r.status().ok());
}

TEST(ProtocolMessagesTest, LoadDatasetRoundTrip) {
  LoadDatasetRequest request;
  request.name = "nba";
  request.source = LoadSource::kGenerator;
  request.payload = "nba:m=50,d=4,seed=1";
  request.header = true;
  LoadDatasetRequest decoded;
  ASSERT_TRUE(decoded.DecodePayload(request.EncodePayload()).ok());
  EXPECT_EQ(decoded.name, request.name);
  EXPECT_EQ(decoded.source, request.source);
  EXPECT_EQ(decoded.payload, request.payload);
  EXPECT_EQ(decoded.header, request.header);

  LoadDatasetResponse response;
  response.name = "nba";
  response.num_objects = 50;
  response.num_instances = 4000;
  response.dim = 4;
  response.reused = true;
  LoadDatasetResponse decoded_response;
  ASSERT_TRUE(
      decoded_response.DecodePayload(response.EncodePayload()).ok());
  EXPECT_EQ(decoded_response.num_instances, 4000);
  EXPECT_TRUE(decoded_response.reused);
}

TEST(ProtocolMessagesTest, AddViewRoundTripAllSpecKinds) {
  for (const ViewSpec& spec :
       {ViewSpec::Full(), ViewSpec::Prefix(17), ViewSpec::Subset({5, 1, 9})}) {
    AddViewRequest request;
    request.base_name = "base";
    request.view_name = "view";
    request.spec = spec;
    AddViewRequest decoded;
    ASSERT_TRUE(decoded.DecodePayload(request.EncodePayload()).ok());
    EXPECT_EQ(decoded.spec.kind, spec.kind);
    EXPECT_EQ(decoded.spec.prefix, spec.prefix);
    EXPECT_EQ(decoded.spec.objects, spec.objects);
  }
}

TEST(ProtocolMessagesTest, QueryRequestRoundTrip) {
  QueryRequestWire request;
  request.dataset = "nba";
  request.constraint_spec = "wr:0.5,2.0";
  request.solver = "kdtt+";
  request.options = {"leaf_size=16", "verbose=true"};
  request.derived_kind = WireDerivedKind::kObjectsAboveThreshold;
  request.k = 3;
  request.threshold = 0.25;
  request.max_objects = 7;
  request.use_cache = false;
  request.allow_pushdown = false;
  request.include_instances = true;
  QueryRequestWire decoded;
  ASSERT_TRUE(decoded.DecodePayload(request.EncodePayload()).ok());
  EXPECT_EQ(decoded.dataset, request.dataset);
  EXPECT_EQ(decoded.constraint_spec, request.constraint_spec);
  EXPECT_EQ(decoded.solver, request.solver);
  EXPECT_EQ(decoded.options, request.options);
  EXPECT_EQ(decoded.derived_kind, request.derived_kind);
  EXPECT_EQ(decoded.threshold, request.threshold);
  EXPECT_FALSE(decoded.use_cache);
  EXPECT_FALSE(decoded.allow_pushdown);
  EXPECT_TRUE(decoded.include_instances);
}

TEST(ProtocolMessagesTest, QueryResponseRoundTripWithInstanceVector) {
  QueryResponseWire response;
  response.solver = "mwtt";
  response.cache_hit = true;
  response.pushdown = true;
  response.complete = false;
  response.goal = "top-5";
  response.result_size = -1;
  response.ranked = {{3, "LeBron", 0.91}, {1, "", 0.5}};
  response.count_threshold = 0.125;
  response.stats.solver = "mwtt";
  response.stats.solve_millis = 1.5;
  response.stats.dominance_tests = 1234;
  response.stats.early_exit_depth = 3;
  response.instance_probs = {0.25, 0.0, 1.0};
  QueryResponseWire decoded;
  ASSERT_TRUE(decoded.DecodePayload(response.EncodePayload()).ok());
  EXPECT_EQ(decoded.solver, "mwtt");
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_TRUE(decoded.pushdown);
  EXPECT_FALSE(decoded.complete);
  EXPECT_EQ(decoded.goal, "top-5");
  ASSERT_EQ(decoded.ranked.size(), 2u);
  EXPECT_EQ(decoded.ranked[0].object_id, 3);
  EXPECT_EQ(decoded.ranked[0].name, "LeBron");
  EXPECT_EQ(decoded.ranked[0].prob, 0.91);
  EXPECT_EQ(decoded.stats.dominance_tests, 1234);
  EXPECT_EQ(decoded.instance_probs, response.instance_probs);
}

TEST(ProtocolMessagesTest, StatsRoundTrip) {
  StatsResponse response;
  response.cache_hits = 10;
  response.cache_misses = 3;
  response.cache_entries = 2;
  response.pooled_contexts = 4;
  response.latency_count = 13;
  response.latency_p95_ms = 2.25;
  response.latency_p999_ms = 7.5;
  response.datasets = {{"nba", 50, 4000, 4, false}, {"nba#50", 25, 2000, 4,
                       true}};
  response.has_index_stats = true;
  response.kdtree_builds = 1;
  response.parent_index_hits = 9;
  response.kernel_arch = "avx2";
  StatsResponse decoded;
  ASSERT_TRUE(decoded.DecodePayload(response.EncodePayload()).ok());
  EXPECT_EQ(decoded.cache_hits, 10);
  EXPECT_EQ(decoded.latency_count, 13);
  EXPECT_EQ(decoded.latency_p95_ms, 2.25);
  EXPECT_EQ(decoded.latency_p999_ms, 7.5);
  ASSERT_EQ(decoded.datasets.size(), 2u);
  EXPECT_EQ(decoded.datasets[1].name, "nba#50");
  EXPECT_TRUE(decoded.datasets[1].is_view);
  EXPECT_EQ(decoded.kernel_arch, "avx2");
  EXPECT_TRUE(decoded.has_index_stats);
  EXPECT_EQ(decoded.parent_index_hits, 9);
}

TEST(ProtocolMessagesTest, ErrorResponseRoundTripsEveryCode) {
  for (const Status& status :
       {Status::InvalidArgument("bad"), Status::FailedPrecondition("pre"),
        Status::NotFound("missing"), Status::Internal("boom"),
        Status::Unimplemented("todo")}) {
    ErrorResponse error = ErrorResponse::From(status);
    ErrorResponse decoded;
    ASSERT_TRUE(decoded.DecodePayload(error.EncodePayload()).ok());
    const Status back = decoded.ToStatus();
    EXPECT_EQ(back.code(), status.code());
    EXPECT_EQ(back.message(), status.message());
  }
}

TEST(ProtocolMessagesTest, DecodersRejectTruncatedPayloads) {
  QueryResponseWire response;
  response.solver = "kdtt+";
  response.ranked = {{1, "a", 0.5}};
  response.instance_probs = {1.0, 2.0};
  const std::string payload = response.EncodePayload();
  // Every strict prefix must fail cleanly (never crash or accept).
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    QueryResponseWire decoded;
    EXPECT_FALSE(decoded.DecodePayload(payload.substr(0, cut)).ok())
        << "prefix of " << cut << " bytes was accepted";
  }
  // Appending garbage must fail Finish.
  QueryResponseWire decoded;
  EXPECT_FALSE(decoded.DecodePayload(payload + "x").ok());
}

TEST(ProtocolMessagesTest, BadEnumValuesAreRejected) {
  {
    LoadDatasetRequest request;
    WireWriter w;
    w.Str("n");
    w.U8(250);  // not a LoadSource
    w.Str("p");
    w.Bool(false);
    EXPECT_FALSE(request.DecodePayload(w.bytes()).ok());
  }
  {
    QueryRequestWire request;
    WireWriter w;
    w.Str("d");
    w.Str("c");
    w.Str("s");
    w.StrVec({});
    w.U8(99);  // not a WireDerivedKind
    w.I32(1);
    w.F64(0.5);
    w.I32(1);
    w.Bool(true);
    w.Bool(true);
    w.Bool(false);
    EXPECT_FALSE(request.DecodePayload(w.bytes()).ok());
  }
}

TEST(ProtocolMessagesTest, RetryLaterRoundTripAndTruncation) {
  RetryLaterResponse retry;
  retry.retry_after_ms = 250;
  retry.reason = "client query rate exceeded";
  const std::string payload = retry.EncodePayload();
  RetryLaterResponse decoded;
  ASSERT_TRUE(decoded.DecodePayload(payload).ok());
  EXPECT_EQ(decoded.retry_after_ms, 250u);
  EXPECT_EQ(decoded.reason, retry.reason);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    RetryLaterResponse partial;
    EXPECT_FALSE(partial.DecodePayload(payload.substr(0, cut)).ok());
  }
  EXPECT_FALSE(decoded.DecodePayload(payload + "x").ok());
}

// ------------------------------------------------------------- framing

class FramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FramingTest, FrameRoundTrip) {
  const std::string payload = "some payload bytes";
  ASSERT_TRUE(SendFrame(fds_[0], MessageType::kQuery, payload).ok());
  auto frame = RecvFrame(fds_[1]);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, MessageType::kQuery);
  EXPECT_EQ(frame->payload, payload);
}

TEST_F(FramingTest, EmptyPayloadRoundTrip) {
  ASSERT_TRUE(SendFrame(fds_[0], MessageType::kPing, "").ok());
  auto frame = RecvFrame(fds_[1]);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, MessageType::kPing);
  EXPECT_TRUE(frame->payload.empty());
}

TEST_F(FramingTest, CleanEofIsNotFound) {
  ::close(fds_[0]);
  fds_[0] = -1;
  auto frame = RecvFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kNotFound);
}

TEST_F(FramingTest, TruncatedHeaderIsInvalid) {
  const char partial[3] = {1, 2, 3};
  ASSERT_EQ(::write(fds_[0], partial, sizeof(partial)), 3);
  ::close(fds_[0]);
  fds_[0] = -1;
  auto frame = RecvFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FramingTest, BadMagicIsRejected) {
  // length=0, magic=0xFFFF, version, type.
  const unsigned char header[8] = {0, 0, 0, 0, 0xFF, 0xFF, 1, 1};
  ASSERT_EQ(::write(fds_[0], header, sizeof(header)), 8);
  auto frame = RecvFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("magic"), std::string::npos);
}

TEST_F(FramingTest, FutureVersionIsRejected) {
  unsigned char header[8] = {0, 0, 0, 0, 0, 0, kWireVersion + 1, 1};
  header[4] = kWireMagic & 0xff;
  header[5] = (kWireMagic >> 8) & 0xff;
  ASSERT_EQ(::write(fds_[0], header, sizeof(header)), 8);
  auto frame = RecvFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("version"), std::string::npos);
}

TEST_F(FramingTest, OlderVersionIsRejected) {
  // Decoders know only the current layout, so an older frame must be
  // refused at the header, not half-decoded into a truncation or
  // trailing-garbage error.
  const std::string payload = QueryRequestWire{}.EncodePayload();
  unsigned char header[8] = {0, 0, 0, 0, 0, 0, kWireVersion - 1, 4};
  const uint32_t length = static_cast<uint32_t>(payload.size());
  header[0] = length & 0xff;
  header[1] = (length >> 8) & 0xff;
  header[4] = kWireMagic & 0xff;
  header[5] = (kWireMagic >> 8) & 0xff;
  ASSERT_EQ(::write(fds_[0], header, sizeof(header)), 8);
  ASSERT_EQ(::write(fds_[0], payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  auto frame = RecvFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(frame.status().message().find(
                "peer speaks protocol version " +
                std::to_string(kWireVersion - 1)),
            std::string::npos)
      << frame.status().ToString();
}

TEST_F(FramingTest, OversizedFrameIsRejectedBySenderAndReceiver) {
  // Sender side: the guard fires before any bytes hit the wire.
  std::string big;
  big.resize(kMaxPayloadBytes + 1);
  EXPECT_FALSE(SendFrame(fds_[0], MessageType::kQuery, big).ok());

  // Receiver side: a forged header claiming a huge payload is rejected
  // before allocation.
  unsigned char header[8] = {0, 0, 0, 0, 0, 0, kWireVersion, 1};
  const uint32_t huge = kMaxPayloadBytes + 1;
  header[0] = huge & 0xff;
  header[1] = (huge >> 8) & 0xff;
  header[2] = (huge >> 16) & 0xff;
  header[3] = (huge >> 24) & 0xff;
  header[4] = kWireMagic & 0xff;
  header[5] = (kWireMagic >> 8) & 0xff;
  ASSERT_EQ(::write(fds_[0], header, sizeof(header)), 8);
  auto frame = RecvFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("max-frame"), std::string::npos);
}

TEST_F(FramingTest, LargeFrameRoundTripsAcrossPartialReads) {
  // Large enough to exceed socket buffers, forcing the short-read/short-
  // write loops to do real work. Sender runs on a thread so the blocking
  // pair cannot deadlock.
  std::string payload;
  payload.reserve(1 << 20);
  for (int i = 0; i < (1 << 20); ++i) {
    payload.push_back(static_cast<char>(i * 31 + 7));
  }
  std::thread sender([&] {
    EXPECT_TRUE(SendFrame(fds_[0], MessageType::kQueryResult, payload).ok());
  });
  auto frame = RecvFrame(fds_[1]);
  sender.join();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->payload, payload);
}

}  // namespace
}  // namespace net
}  // namespace arsp
