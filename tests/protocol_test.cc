// Copyright 2026 The ARSP Authors.
//
// Wire-protocol unit tests, no sockets needed for the codec half: every
// message encodes to its recorded golden bytes and round-trips encode →
// decode bit-exactly, truncated and hostile payloads (forged counts, span
// trees past the size and depth bounds, floods of solver options) are
// rejected without overreads, allocations or stack overflow, and the
// fd-level framing (over a socketpair) enforces magic, version, and the
// max-frame guard.

#include "src/net/protocol.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace arsp {
namespace net {
namespace {

// One fixed value of every message type, each field set away from its
// default. The golden, truncation, hostile-count and bad-enum tests below
// all start from these.
LoadDatasetRequest GoldenLoadDatasetRequest() {
  LoadDatasetRequest m;
  m.name = "nba";
  m.source = LoadSource::kGenerator;
  m.payload = "iip:n=5";
  m.header = true;
  return m;
}

LoadDatasetResponse GoldenLoadDatasetResponse() {
  LoadDatasetResponse m;
  m.name = "nba";
  m.num_objects = 50;
  m.num_instances = 4000;
  m.dim = 4;
  m.reused = true;
  return m;
}

AddViewRequest GoldenAddViewRequest() {
  AddViewRequest m;
  m.base_name = "nba";
  m.view_name = "nba#2";
  m.spec.kind = ViewSpec::Kind::kSubset;
  m.spec.prefix = 2;
  m.spec.objects = {7, 3};
  return m;
}

AddViewResponse GoldenAddViewResponse() {
  AddViewResponse m;
  m.name = "nba#2";
  m.num_objects = 2;
  m.num_instances = 160;
  m.dim = 4;
  return m;
}

QueryRequestWire GoldenQueryRequest() {
  QueryRequestWire m;
  m.dataset = "nba";
  m.constraint_spec = "wr:0.5,2";
  m.solver = "kdtt+";
  m.options = {"a=1", "b=2"};
  m.derived_kind = DerivedKind::kCountControlled;
  m.k = 7;
  m.threshold = 0.25;
  m.max_objects = 12;
  m.use_cache = false;
  m.allow_pushdown = false;
  m.include_instances = true;
  m.parallelism = 3;
  m.trace_id = 0x0123456789abcdefull;
  m.want_trace = true;
  return m;
}

QueryResponseWire GoldenQueryResponse() {
  QueryResponseWire m;
  m.solver = "mwtt";
  m.cache_hit = true;
  m.pushdown = true;
  m.complete = false;
  m.goal = "p>=0.5";
  m.result_size = -1;
  m.ranked = {{3, "a", 0.75}, {-2, "", 0.5}};
  m.count_threshold = 0.125;
  m.stats.solver = "mwtt";
  m.stats.setup_millis = 1.5;
  m.stats.solve_millis = 2.5;
  m.stats.dominance_tests = 1;
  m.stats.nodes_visited = 2;
  m.stats.nodes_pruned = 3;
  m.stats.index_probes = 4;
  m.stats.objects_pruned = 5;
  m.stats.bound_refinements = 6;
  m.stats.early_exit_depth = 7;
  m.stats.index_bytes_resident = 8;
  m.stats.index_bytes_mapped = 9;
  m.stats.peak_rss_bytes = 10;
  m.stats.tasks_spawned = 11;
  m.stats.tasks_stolen = 12;
  m.stats.parallel_workers = 13;
  m.instance_probs = {0.25, -1.0};
  m.trace_id = 42;
  obs::Span child;
  child.name = "s";
  child.start_ns = 2;
  child.end_ns = 3;
  child.annotations = {{"n", "1"}};
  obs::Span root;
  root.name = "q";
  root.start_ns = 1;
  root.end_ns = 4;
  root.annotations = {{"k", "v"}};
  root.children = {child};
  m.trace_spans = {root};
  return m;
}

// The golden reply as an untraced server sends it.
QueryResponseWire UntracedQueryResponse() {
  QueryResponseWire m = GoldenQueryResponse();
  m.trace_id = 0;
  m.trace_spans.clear();
  return m;
}

RetryLaterResponse GoldenRetryLater() {
  RetryLaterResponse m;
  m.retry_after_ms = 250;
  m.reason = "quota";
  return m;
}

StatsRequest GoldenStatsRequest() {
  StatsRequest m;
  m.dataset = "nba";
  return m;
}

StatsResponse GoldenStatsResponse() {
  StatsResponse m;
  m.cache_hits = 10;
  m.cache_misses = 3;
  m.cache_entries = 2;
  m.pooled_contexts = 4;
  m.latency_count = 13;
  m.latency_mean_ms = 1.5;
  m.latency_p50_ms = 0.5;
  m.latency_p95_ms = 2.25;
  m.latency_p99_ms = 3.0;
  m.latency_p999_ms = 7.5;
  m.datasets = {{"nba", 50, 4000, 4, false}, {"nba#2", 2, 160, 4, true}};
  m.has_index_stats = true;
  m.index_work.kdtree_builds = 1;
  m.index_work.rtree_builds = 2;
  m.index_work.score_maps = 3;
  m.index_work.score_reuses = 4;
  m.index_work.parent_index_hits = 5;
  m.index_work.snapshot_hits = 6;
  m.index_memory.resident = 7;
  m.index_memory.mapped = 8;
  m.kernel_arch = "avx2";
  m.peak_rss_bytes = 9;
  return m;
}

DropRequest GoldenDropRequest() {
  DropRequest m;
  m.name = "nba#2";
  return m;
}

ErrorResponse GoldenErrorResponse() {
  ErrorResponse m;
  m.code = StatusCode::kNotFound;
  m.message = "gone";
  return m;
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const unsigned char byte : bytes) {
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  return hex;
}

// Offset of the first byte where two encodings differ: where a field that
// differs between the two messages starts (the low byte of a count).
size_t FirstDifference(const std::string& a, const std::string& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

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

// Sets the vector count that `grow` (one more element) moves to 2^31 in a
// valid encoding of `message`: the decode must fail the count-versus-
// remaining check instead of attempting a multi-GiB allocation.
template <class M, class Grow>
void ExpectHostileCountRejected(M message, Grow grow) {
  const std::string payload = message.EncodePayload();
  grow(message);
  std::string hostile = payload;
  hostile.replace(FirstDifference(payload, message.EncodePayload()), 4,
                  std::string("\x00\x00\x00\x80", 4));
  M decoded;
  ASSERT_TRUE(decoded.DecodePayload(payload).ok());
  const Status status = decoded.DecodePayload(hostile);
  EXPECT_NE(status.message().find("vector count 2147483648 exceeds payload"),
            std::string::npos)
      << status.ToString();
}

TEST(WireCodecTest, HostileVectorCountsAreRejectedBeforeAllocation) {
  ExpectHostileCountRejected(GoldenQueryRequest(), [](QueryRequestWire& m) {
    m.options.push_back("");  // strings
  });
  ExpectHostileCountRejected(GoldenAddViewRequest(), [](AddViewRequest& m) {
    m.spec.objects.push_back(0);  // i32s
  });
  ExpectHostileCountRejected(GoldenQueryResponse(), [](QueryResponseWire& m) {
    m.ranked.emplace_back();  // ranked entries
  });
  ExpectHostileCountRejected(GoldenQueryResponse(), [](QueryResponseWire& m) {
    m.instance_probs.push_back(0.0);  // f64s
  });
  ExpectHostileCountRejected(GoldenStatsResponse(), [](StatsResponse& m) {
    m.datasets.emplace_back();  // dataset listings
  });
  ExpectHostileCountRejected(GoldenQueryResponse(), [](QueryResponseWire& m) {
    m.trace_spans.emplace_back();  // span roots
  });
  ExpectHostileCountRejected(GoldenQueryResponse(), [](QueryResponseWire& m) {
    m.trace_spans[0].annotations.emplace_back();  // annotations
  });
  ExpectHostileCountRejected(GoldenQueryResponse(), [](QueryResponseWire& m) {
    m.trace_spans[0].children.emplace_back();  // span children
  });
  // A string length past the end of the payload is rejected too.
  WireWriter s;
  s.U32(1000);
  WireReader r(s.bytes());
  r.Str();
  EXPECT_FALSE(r.status().ok());
}

// A reply whose span tree is one chain `depth` spans deep, written by hand
// as a hostile shard could send it.
std::string SpanChainReply(int depth) {
  std::string payload = QueryResponseWire().EncodePayload();
  payload.resize(payload.size() - 4);  // the empty trace_spans count
  WireWriter w;
  w.U32(1);  // one root
  for (int level = 1; level <= depth; ++level) {
    w.Str("");  // name
    w.U64(0);  // start_ns
    w.U64(0);  // end_ns
    w.U32(0);  // annotations count
    w.U32(level < depth ? 1 : 0);  // children count
  }
  return payload + w.Take();
}

TEST(WireCodecTest, SpanNestingIsBoundedBeforeTheStackIs) {
  QueryResponseWire decoded;
  const std::string at_bound = SpanChainReply(kMaxTraceDepth);
  ASSERT_TRUE(decoded.DecodePayload(at_bound).ok());
  EXPECT_EQ(decoded.EncodePayload(), at_bound);
  const Status deeper =
      decoded.DecodePayload(SpanChainReply(kMaxTraceDepth + 1));
  EXPECT_EQ(deeper.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(deeper.message().find("trace spans nested deeper than 64"),
            std::string::npos)
      << deeper.ToString();
  // 40,000 deep is 1.1 MB, inside the frame guard and the span cap; a
  // recursive decode without the depth bound overflows a thread's stack.
  const std::string chain = SpanChainReply(40000);
  ASSERT_LT(chain.size(), kMaxPayloadBytes);
  Status status;
  std::thread([&chain, &status] {
    QueryResponseWire reply;
    status = reply.DecodePayload(chain);
  }).join();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST(WireCodecTest, SpanCountIsCappedPerReply) {
  QueryResponseWire reply;
  reply.trace_spans.resize(kMaxTraceSpans);
  QueryResponseWire decoded;
  ASSERT_TRUE(decoded.DecodePayload(reply.EncodePayload()).ok());
  EXPECT_EQ(decoded.trace_spans.size(), kMaxTraceSpans);
  reply.trace_spans.emplace_back();
  const Status status = decoded.DecodePayload(reply.EncodePayload());
  EXPECT_NE(status.message().find("more than 65536 trace spans"),
            std::string::npos)
      << status.ToString();
  // Nested spans count too: one root over 65,536 children is one too many.
  QueryResponseWire nested;
  nested.trace_spans.resize(1);
  nested.trace_spans[0].children.resize(kMaxTraceSpans);
  const Status nested_status = decoded.DecodePayload(nested.EncodePayload());
  EXPECT_NE(nested_status.message().find("more than 65536 trace spans"),
            std::string::npos)
      << nested_status.ToString();
}

// A reply with one span carrying `count` empty annotations, written by
// hand: 8 bytes on the wire per annotation.
std::string SpanWithEmptyAnnotations(uint32_t count) {
  std::string payload = QueryResponseWire().EncodePayload();
  payload.resize(payload.size() - 4);  // the empty trace_spans count
  WireWriter w;
  w.U32(1);  // one root
  w.Str("");  // name
  w.U64(0);  // start_ns
  w.U64(0);  // end_ns
  w.U32(count);  // annotations count
  std::string spans = w.Take();
  spans.append(size_t{count} * 8, '\0');  // empty key and value each
  WireWriter children;
  children.U32(0);
  return payload + spans + children.Take();
}

TEST(WireCodecTest, SpanAnnotationsAreCappedPerReply) {
  QueryResponseWire reply;
  reply.trace_spans.resize(1);
  reply.trace_spans[0].annotations.resize(kMaxTraceAnnotations);
  QueryResponseWire decoded;
  ASSERT_TRUE(decoded.DecodePayload(reply.EncodePayload()).ok());
  ASSERT_EQ(decoded.trace_spans.size(), 1u);
  EXPECT_EQ(decoded.trace_spans[0].annotations.size(), kMaxTraceAnnotations);
  reply.trace_spans[0].annotations.emplace_back();
  const Status one_more = decoded.DecodePayload(reply.EncodePayload());
  EXPECT_EQ(one_more.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(one_more.message().find("more than 65536 trace annotations"),
            std::string::npos)
      << one_more.ToString();
  // The cap is per reply: two spans of half the cap plus one are too many.
  QueryResponseWire split;
  split.trace_spans.resize(2);
  for (obs::Span& span : split.trace_spans) {
    span.annotations.resize(kMaxTraceAnnotations / 2 + 1);
  }
  const Status split_status = decoded.DecodePayload(split.EncodePayload());
  EXPECT_EQ(split_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(split_status.message().find("more than 65536 trace annotations"),
            std::string::npos)
      << split_status.ToString();
  // The hand-written payload decodes at the cap, so past it only the cap
  // can refuse it.
  ASSERT_TRUE(decoded
                  .DecodePayload(SpanWithEmptyAnnotations(
                      static_cast<uint32_t>(kMaxTraceAnnotations)))
                  .ok());
  EXPECT_EQ(decoded.trace_spans[0].annotations.size(), kMaxTraceAnnotations);
  // 32 MiB of empty annotations, inside the frame guard: 256 MiB once
  // decoded, refused at the count before any of it is allocated.
  const std::string flood = SpanWithEmptyAnnotations(4194304);
  ASSERT_LT(flood.size(), kMaxPayloadBytes);
  const Status status = decoded.DecodePayload(flood);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("more than 65536 trace annotations"),
            std::string::npos)
      << status.ToString();
}

TEST(WireCodecTest, SolverOptionsAreCappedPerQuery) {
  QueryRequestWire request = GoldenQueryRequest();
  request.options.assign(kMaxQueryOptions, "a=1");
  QueryRequestWire decoded;
  ASSERT_TRUE(decoded.DecodePayload(request.EncodePayload()).ok());
  EXPECT_EQ(decoded.options, request.options);
  request.options.emplace_back("b=2");
  const Status one_more = decoded.DecodePayload(request.EncodePayload());
  EXPECT_EQ(one_more.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(one_more.message().find("more than 64 solver options"),
            std::string::npos)
      << one_more.ToString();
  // The hand-written payload decodes at the cap, so past it only the cap
  // can refuse it.
  ASSERT_TRUE(
      decoded.DecodePayload(testing_util::QueryWithEmptyOptions(64)).ok());
  EXPECT_EQ(decoded.options, std::vector<std::string>(64));
  // 16 MiB of empty options, inside the frame guard: 128 MiB once decoded,
  // refused at the count before any of it is allocated.
  const std::string flood = testing_util::QueryWithEmptyOptions(4194304);
  ASSERT_LT(flood.size(), kMaxPayloadBytes);
  const Status status = decoded.DecodePayload(flood);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("more than 64 solver options"),
            std::string::npos)
      << status.ToString();
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
  request.derived_kind = DerivedKind::kObjectsAboveThreshold;
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
  response.index_work.kdtree_builds = 1;
  response.index_work.parent_index_hits = 9;
  response.index_memory.mapped = 4096;
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
  EXPECT_EQ(decoded.index_work.kdtree_builds, 1);
  EXPECT_EQ(decoded.index_work.parent_index_hits, 9);
  EXPECT_EQ(decoded.index_memory.mapped, 4096u);
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

// Every strict prefix of `message`'s encoding fails cleanly (never crashes
// or accepts), as does the encoding plus one trailing byte; the encoding
// itself decodes to a message that re-encodes to the same bytes.
template <class M>
void ExpectOnlyExactPayloadDecodes(const M& message) {
  const std::string payload = message.EncodePayload();
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    M decoded;
    EXPECT_FALSE(decoded.DecodePayload(payload.substr(0, cut)).ok())
        << "prefix of " << cut << " of " << payload.size()
        << " bytes was accepted";
  }
  M decoded;
  EXPECT_FALSE(decoded.DecodePayload(payload + "x").ok());
  ASSERT_TRUE(decoded.DecodePayload(payload).ok());
  EXPECT_EQ(decoded.EncodePayload(), payload);
}

TEST(ProtocolMessagesTest, DecodersRejectTruncatedPayloads) {
  ExpectOnlyExactPayloadDecodes(GoldenLoadDatasetRequest());
  ExpectOnlyExactPayloadDecodes(GoldenLoadDatasetResponse());
  ExpectOnlyExactPayloadDecodes(GoldenAddViewRequest());
  ExpectOnlyExactPayloadDecodes(GoldenAddViewResponse());
  ExpectOnlyExactPayloadDecodes(GoldenQueryRequest());
  ExpectOnlyExactPayloadDecodes(GoldenQueryResponse());
  ExpectOnlyExactPayloadDecodes(UntracedQueryResponse());
  ExpectOnlyExactPayloadDecodes(GoldenRetryLater());
  ExpectOnlyExactPayloadDecodes(GoldenStatsRequest());
  ExpectOnlyExactPayloadDecodes(GoldenStatsResponse());
  ExpectOnlyExactPayloadDecodes(GoldenDropRequest());
  ExpectOnlyExactPayloadDecodes(GoldenErrorResponse());
}

// Patches the enum byte that `set_other` changes in a full valid encoding
// of `message`: the other valid value decodes, `bad` and `last + 1` are
// rejected with the enum's own error, not a truncation.
template <class M, class SetOther>
void ExpectBadEnumRejected(M message, SetOther set_other, uint8_t last,
                           uint8_t bad, const std::string& name) {
  const std::string payload = message.EncodePayload();
  set_other(message);
  const std::string other = message.EncodePayload();
  const size_t at = FirstDifference(payload, other);
  M decoded;
  ASSERT_TRUE(decoded.DecodePayload(other).ok());
  for (const uint8_t value : {static_cast<uint8_t>(last + 1), bad}) {
    std::string patched = payload;
    patched[at] = static_cast<char>(value);
    const Status status = decoded.DecodePayload(patched);
    const std::string expected = "bad " + name + " " + std::to_string(value);
    EXPECT_NE(status.message().find(expected), std::string::npos)
        << "want '" << expected << "', got " << status.ToString();
  }
}

TEST(ProtocolMessagesTest, BadEnumValuesAreRejected) {
  ExpectBadEnumRejected(
      GoldenLoadDatasetRequest(),
      [](LoadDatasetRequest& m) { m.source = LoadSource::kCsvText; },
      static_cast<uint8_t>(LoadSource::kGenerator), 250, "LoadSource");
  ExpectBadEnumRejected(
      GoldenAddViewRequest(),
      [](AddViewRequest& m) { m.spec.kind = ViewSpec::Kind::kFull; },
      static_cast<uint8_t>(ViewSpec::Kind::kSubset), 7, "ViewSpec kind");
  ExpectBadEnumRejected(
      GoldenQueryRequest(),
      [](QueryRequestWire& m) {
        m.derived_kind = DerivedKind::kObjectsAboveThreshold;
      },
      static_cast<uint8_t>(DerivedKind::kCountControlled), 99,
      "derived kind");
  ExpectBadEnumRejected(
      GoldenErrorResponse(),
      [](ErrorResponse& m) { m.code = StatusCode::kInternal; },
      static_cast<uint8_t>(StatusCode::kUnavailable), 42, "status code");
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

// ------------------------------------------------------------ golden bytes
//
// Each fixed value's payload, field by field, as the wire v10 encoder
// writes it. The QUERY bytes and the untraced QUERY_RESULT bytes are the
// ones v9 wrote too; the traced reply's span tree and the STATS index
// fields changed in v10. A layout change fails here; it must update these
// bytes and bump kWireVersion.

TEST(WireGoldenBytes, LoadDatasetRequest) {
  EXPECT_EQ(Hex(GoldenLoadDatasetRequest().EncodePayload()),
            "030000006e6261"  // name
            "02"  // source
            "070000006969703a6e3d35"  // payload
            "01");  // header
}

TEST(WireGoldenBytes, LoadDatasetResponse) {
  EXPECT_EQ(Hex(GoldenLoadDatasetResponse().EncodePayload()),
            "030000006e6261"  // name
            "32000000"  // num_objects
            "a00f0000"  // num_instances
            "04000000"  // dim
            "01");  // reused
}

TEST(WireGoldenBytes, AddViewRequest) {
  EXPECT_EQ(Hex(GoldenAddViewRequest().EncodePayload()),
            "030000006e6261"  // base_name
            "050000006e62612332"  // view_name
            "02"  // spec.kind
            "02000000"  // spec.prefix
            "02000000"  // spec.objects count
            "07000000"  // spec.objects[0]
            "03000000");  // spec.objects[1]
}

TEST(WireGoldenBytes, AddViewResponse) {
  EXPECT_EQ(Hex(GoldenAddViewResponse().EncodePayload()),
            "050000006e62612332"  // name
            "02000000"  // num_objects
            "a0000000"  // num_instances
            "04000000");  // dim
}

TEST(WireGoldenBytes, QueryRequestWire) {
  EXPECT_EQ(Hex(GoldenQueryRequest().EncodePayload()),
            "030000006e6261"  // dataset
            "0800000077723a302e352c32"  // constraint_spec
            "050000006b6474742b"  // solver
            "02000000"  // options count
            "03000000613d31"  // options[0]
            "03000000623d32"  // options[1]
            "04"  // derived_kind
            "07000000"  // k
            "000000000000d03f"  // threshold
            "0c000000"  // max_objects
            "00"  // use_cache
            "00"  // allow_pushdown
            "01"  // include_instances
            "03000000"  // parallelism
            "efcdab8967452301"  // trace_id
            "01");  // want_trace
}

TEST(WireGoldenBytes, QueryResponseWire) {
  EXPECT_EQ(Hex(GoldenQueryResponse().EncodePayload()),
            "040000006d777474"  // solver
            "01"  // cache_hit
            "01"  // pushdown
            "00"  // complete
            "06000000703e3d302e35"  // goal
            "ffffffff"  // result_size
            "02000000"  // ranked count
            "030000000100000061000000000000e83f"  // ranked[0]
            "feffffff00000000000000000000e03f"  // ranked[1]
            "000000000000c03f"  // count_threshold
            "040000006d777474"  // stats.solver
            "000000000000f83f"  // stats.setup_millis
            "0000000000000440"  // stats.solve_millis
            "0100000000000000"  // stats.dominance_tests
            "0200000000000000"  // stats.nodes_visited
            "0300000000000000"  // stats.nodes_pruned
            "0400000000000000"  // stats.index_probes
            "0500000000000000"  // stats.objects_pruned
            "0600000000000000"  // stats.bound_refinements
            "0700000000000000"  // stats.early_exit_depth
            "0800000000000000"  // stats.index_bytes_resident
            "0900000000000000"  // stats.index_bytes_mapped
            "0a00000000000000"  // stats.peak_rss_bytes
            "0b00000000000000"  // stats.tasks_spawned
            "0c00000000000000"  // stats.tasks_stolen
            "0d00000000000000"  // stats.parallel_workers
            "02000000"  // instance_probs count
            "000000000000d03f"  // instance_probs[0]
            "000000000000f0bf"  // instance_probs[1]
            "2a00000000000000"  // trace_id
            "01000000"  // trace_spans count
            "0100000071"  // trace_spans[0].name
            "0100000000000000"  // trace_spans[0].start_ns
            "0400000000000000"  // trace_spans[0].end_ns
            "01000000"  // trace_spans[0].annotations count
            "010000006b0100000076"  // trace_spans[0].annotations[0]
            "01000000"  // trace_spans[0].children count
            "0100000073"  // .children[0].name
            "0200000000000000"  // .children[0].start_ns
            "0300000000000000"  // .children[0].end_ns
            "01000000"  // .children[0].annotations count
            "010000006e0100000031"  // .children[0].annotations[0]
            "00000000");  // .children[0].children count
}

TEST(WireGoldenBytes, UntracedQueryResponseWire) {
  // Recorded from the v9 encoder, whose trace_spans was a string.
  EXPECT_EQ(Hex(UntracedQueryResponse().EncodePayload()),
            "040000006d777474"  // solver
            "01"  // cache_hit
            "01"  // pushdown
            "00"  // complete
            "06000000703e3d302e35"  // goal
            "ffffffff"  // result_size
            "02000000"  // ranked count
            "030000000100000061000000000000e83f"  // ranked[0]
            "feffffff00000000000000000000e03f"  // ranked[1]
            "000000000000c03f"  // count_threshold
            "040000006d777474"  // stats.solver
            "000000000000f83f"  // stats.setup_millis
            "0000000000000440"  // stats.solve_millis
            "0100000000000000"  // stats.dominance_tests
            "0200000000000000"  // stats.nodes_visited
            "0300000000000000"  // stats.nodes_pruned
            "0400000000000000"  // stats.index_probes
            "0500000000000000"  // stats.objects_pruned
            "0600000000000000"  // stats.bound_refinements
            "0700000000000000"  // stats.early_exit_depth
            "0800000000000000"  // stats.index_bytes_resident
            "0900000000000000"  // stats.index_bytes_mapped
            "0a00000000000000"  // stats.peak_rss_bytes
            "0b00000000000000"  // stats.tasks_spawned
            "0c00000000000000"  // stats.tasks_stolen
            "0d00000000000000"  // stats.parallel_workers
            "02000000"  // instance_probs count
            "000000000000d03f"  // instance_probs[0]
            "000000000000f0bf"  // instance_probs[1]
            "0000000000000000"  // trace_id
            "00000000");  // trace_spans count
}

TEST(WireGoldenBytes, RetryLaterResponse) {
  EXPECT_EQ(Hex(GoldenRetryLater().EncodePayload()),
            "fa000000"  // retry_after_ms
            "0500000071756f7461");  // reason
}

TEST(WireGoldenBytes, StatsRequest) {
  EXPECT_EQ(Hex(GoldenStatsRequest().EncodePayload()),
            "030000006e6261");  // dataset
}

TEST(WireGoldenBytes, StatsResponse) {
  EXPECT_EQ(Hex(GoldenStatsResponse().EncodePayload()),
            "0a00000000000000"  // cache_hits
            "0300000000000000"  // cache_misses
            "0200000000000000"  // cache_entries
            "0400000000000000"  // pooled_contexts
            "0d00000000000000"  // latency_count
            "000000000000f83f"  // latency_mean_ms
            "000000000000e03f"  // latency_p50_ms
            "0000000000000240"  // latency_p95_ms
            "0000000000000840"  // latency_p99_ms
            "0000000000001e40"  // latency_p999_ms
            "02000000"  // datasets count
            "030000006e626132000000a00f00000400000000"  // datasets[0]
            "050000006e6261233202000000a00000000400000001"  // datasets[1]
            "01"  // has_index_stats
            "0100000000000000"  // index_work.kdtree_builds
            "0200000000000000"  // index_work.rtree_builds
            "0300000000000000"  // index_work.score_maps
            "0400000000000000"  // index_work.score_reuses
            "0500000000000000"  // index_work.parent_index_hits
            "0600000000000000"  // index_work.snapshot_hits
            "0700000000000000"  // index_memory.resident
            "0800000000000000"  // index_memory.mapped
            "0400000061767832"  // kernel_arch
            "0900000000000000");  // peak_rss_bytes
}

TEST(WireGoldenBytes, DropRequest) {
  EXPECT_EQ(Hex(GoldenDropRequest().EncodePayload()),
            "050000006e62612332");  // name
}

TEST(WireGoldenBytes, ErrorResponse) {
  EXPECT_EQ(Hex(GoldenErrorResponse().EncodePayload()),
            "03"  // code
            "04000000676f6e65");  // message
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
