// Copyright 2026 The ARSP Authors.
//
// The tracing layer (src/obs/trace.h): span nesting and annotation
// mechanics, the zero-cost disabled mode, the text renderer, and the
// AdoptChild stitching hook the cluster coordinator uses. The wire form of
// a span tree is tested with the rest of the codec (protocol_test).

#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace arsp {
namespace obs {
namespace {

TEST(TraceTest, RootSpanOpensAndFinishCloses) {
  Trace trace(42, "request");
  EXPECT_EQ(trace.id(), 42u);
  EXPECT_EQ(trace.root().name, "request");
  EXPECT_GT(trace.root().start_ns, 0u);
  EXPECT_EQ(trace.root().end_ns, 0u);  // still open
  trace.Finish();
  EXPECT_GE(trace.root().end_ns, trace.root().start_ns);
}

TEST(TraceTest, FinishIsIdempotent) {
  Trace trace(1);
  trace.Finish();
  const uint64_t end = trace.root().end_ns;
  trace.Finish();
  EXPECT_EQ(trace.root().end_ns, end);
}

TEST(TraceTest, ScopedSpansNestLexically) {
  Trace trace(7);
  {
    ScopedSpan outer(&trace, "outer");
    EXPECT_TRUE(outer.enabled());
    {
      ScopedSpan inner(&trace, "inner");
      inner.Annotate("k", "v");
      inner.Annotate("n", static_cast<int64_t>(12));
    }
    ScopedSpan sibling(&trace, "sibling");
  }
  trace.Finish();

  const Span& root = trace.root();
  ASSERT_EQ(root.children.size(), 1u);
  const Span& outer = root.children[0];
  EXPECT_EQ(outer.name, "outer");
  ASSERT_EQ(outer.children.size(), 2u);
  EXPECT_EQ(outer.children[0].name, "inner");
  EXPECT_EQ(outer.children[1].name, "sibling");
  ASSERT_EQ(outer.children[0].annotations.size(), 2u);
  EXPECT_EQ(outer.children[0].annotations[0].first, "k");
  EXPECT_EQ(outer.children[0].annotations[0].second, "v");
  EXPECT_EQ(outer.children[0].annotations[1].second, "12");
  // Closed children have their clocks stopped inside the parent's window.
  EXPECT_GE(outer.children[0].end_ns, outer.children[0].start_ns);
  EXPECT_GE(outer.children[0].start_ns, outer.start_ns);
}

TEST(TraceTest, AnnotateTargetsInnermostOpenSpan) {
  Trace trace(3);
  trace.Annotate("root_key", "root_value");
  {
    ScopedSpan child(&trace, "child");
    trace.Annotate("child_key", "child_value");
  }
  trace.Finish();
  ASSERT_EQ(trace.root().annotations.size(), 1u);
  EXPECT_EQ(trace.root().annotations[0].first, "root_key");
  ASSERT_EQ(trace.root().children.size(), 1u);
  ASSERT_EQ(trace.root().children[0].annotations.size(), 1u);
  EXPECT_EQ(trace.root().children[0].annotations[0].first, "child_key");
}

TEST(TraceTest, NullTraceIsZeroCostNoOp) {
  // The disabled mode used on every untraced request: all calls must be
  // safe no-ops so instrumented code never branches on enablement.
  ScopedSpan span(nullptr, "ignored");
  EXPECT_FALSE(span.enabled());
  span.Annotate("k", "v");
  span.Annotate("n", static_cast<int64_t>(5));
}

TEST(TraceTest, SpansAfterFinishAreIgnored) {
  Trace trace(9);
  trace.Finish();
  ScopedSpan late(&trace, "late");
  EXPECT_FALSE(late.enabled());
  EXPECT_TRUE(trace.root().children.empty());
}

TEST(TraceTest, NewTraceIdIsNonZeroAndDistinct) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    const uint64_t id = Trace::NewTraceId();
    EXPECT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 64u);
}

// Builds a small tree with known values.
Span MakeTree() {
  Span root;
  root.name = "engine_query";
  root.start_ns = 1000;
  root.end_ns = 9000;
  root.annotations.emplace_back("solver", "kdtt+");
  Span solve;
  solve.name = "solve";
  solve.start_ns = 2000;
  solve.end_ns = 8000;
  solve.annotations.emplace_back("instances", "120");
  Span probe;
  probe.name = "cache_probe";
  probe.start_ns = 1100;
  probe.end_ns = 1200;
  root.children.push_back(probe);
  root.children.push_back(solve);
  return root;
}

TEST(TraceRenderTest, RendersIdNamesAndAnnotations) {
  const std::string text = RenderSpanTree(MakeTree(), 0xabcdef0123456789ull);
  EXPECT_NE(text.find("trace abcdef0123456789"), std::string::npos);
  EXPECT_NE(text.find("engine_query"), std::string::npos);
  EXPECT_NE(text.find("cache_probe"), std::string::npos);
  EXPECT_NE(text.find("solve"), std::string::npos);
  EXPECT_NE(text.find("solver=kdtt+"), std::string::npos);
  // Durations: the root spans 8000ns = 0.008ms.
  EXPECT_NE(text.find("0.008ms"), std::string::npos);
}

TEST(TraceStitchTest, AdoptChildAttachesShardSubtree) {
  // The coordinator path: a shard reply's engine_query tree is adopted
  // under the coordinator's open forward span.
  Trace trace(11, "coordinator_query");
  {
    ScopedSpan forward(&trace, "forward");
    Span shard_tree = MakeTree();
    shard_tree.annotations.emplace_back("shard", "0");
    trace.AdoptChild(std::move(shard_tree));
  }
  trace.Finish();

  const Span& root = trace.root();
  ASSERT_EQ(root.children.size(), 1u);
  const Span& forward = root.children[0];
  EXPECT_EQ(forward.name, "forward");
  ASSERT_EQ(forward.children.size(), 1u);
  const Span& shard = forward.children[0];
  EXPECT_EQ(shard.name, "engine_query");
  EXPECT_EQ(shard.children.size(), 2u);
  // The adopted subtree keeps the remote process's clock values verbatim;
  // the renderer resets its offset base per clock domain, so rendering the
  // stitched tree must not crash or produce absurd offsets.
  const std::string text = RenderSpanTree(root, trace.id());
  EXPECT_NE(text.find("shard=0"), std::string::npos);
  EXPECT_NE(text.find("cache_probe"), std::string::npos);
}

TEST(TraceStitchTest, AdoptAfterFinishFallsBackToRoot) {
  Trace trace(12);
  trace.Finish();
  Span orphan;
  orphan.name = "late_shard";
  trace.AdoptChild(std::move(orphan));
  ASSERT_EQ(trace.root().children.size(), 1u);
  EXPECT_EQ(trace.root().children[0].name, "late_shard");
}

}  // namespace
}  // namespace obs
}  // namespace arsp
