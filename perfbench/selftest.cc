// Copyright 2026 The ARSP Authors.
//
// The benchmark's own tests: the p90 sample-count rule, that RETRY_LATER
// replies and corrupted answers both count as failed, and that every
// workload runs end to end, untraced and traced, at a tiny size through the
// same code the benchmark runs. Run with `python3 perfbench/run.py
// --self-test` (which runs this binary inside its build directory).

#include <atomic>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "perfbench/serve_bench.h"

namespace perfbench {
namespace {

using arsp::StatusOr;
using arsp::net::QueryRequestWire;
using arsp::net::QueryResponseWire;
using arsp::net::ServiceBackend;

RunConfig Tiny(const std::string& workload, bool trace) {
  RunConfig config;
  config.workload = workload;
  config.seed = 7;
  config.seconds = 1.0;
  config.trace = trace;
  config.scale = Scale::kTiny;
  config.work_dir = "selftest-work";
  return config;
}

bool HasMetric(const RunReport& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return true;
  }
  return false;
}

TEST(TailPercentileTest, RefusesP90BelowHundredSamples) {
  EXPECT_EQ(MinSamplesFor(0.9), 100u);
  std::vector<double> samples;
  for (int i = 0; i < 99; ++i) samples.push_back(i);
  EXPECT_FALSE(TailPercentile(samples, 0.9).ok());
  samples.push_back(99);
  const StatusOr<double> p90 = TailPercentile(samples, 0.9);
  ASSERT_TRUE(p90.ok());
  EXPECT_EQ(*p90, 89.0);  // nearest rank round(0.9 * 99) = 89
}

// Admits the warm-up, then refuses every other query with RETRY_LATER.
class EveryOtherGate : public arsp::net::QueryGate {
 public:
  explicit EveryOtherGate(int admit_first) : admit_first_(admit_first) {}
  bool Admit(uint64_t, uint32_t* retry_after_ms,
             std::string* reason) override {
    const int n = calls_.fetch_add(1);
    if (n < admit_first_ || n % 2 == 0) return true;
    *retry_after_ms = 0;
    *reason = "self-test gate";
    return false;
  }
  void Release(uint64_t) override {}

 private:
  const int admit_first_;
  std::atomic<int> calls_{0};
};

TEST(FailedRatioTest, RetryLaterCountsAsFailed) {
  RunConfig config = Tiny("hot_repeat", false);
  config.stack.gate = std::make_shared<EveryOtherGate>(8);
  auto report = RunWorkload(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->tally.retry_later, 0);
  EXPECT_EQ(report->tally.failed(), report->tally.retry_later);
  EXPECT_TRUE(report->correct());
}

// Answers like `inner` but bumps result_size once the warm-up is through.
class CorruptingBackend : public ServiceBackend {
 public:
  CorruptingBackend(std::shared_ptr<ServiceBackend> inner, int skip)
      : inner_(std::move(inner)), skip_(skip) {}
  StatusOr<arsp::net::LoadDatasetResponse> Load(
      const arsp::net::LoadDatasetRequest& request) override {
    return inner_->Load(request);
  }
  StatusOr<arsp::net::AddViewResponse> AddView(
      const arsp::net::AddViewRequest& request) override {
    return inner_->AddView(request);
  }
  StatusOr<arsp::net::StatsResponse> Stats(
      const arsp::net::StatsRequest& request) override {
    return inner_->Stats(request);
  }
  arsp::Status Drop(const arsp::net::DropRequest& request) override {
    return inner_->Drop(request);
  }
  StatusOr<QueryResponseWire> Query(const QueryRequestWire& request) override {
    StatusOr<QueryResponseWire> reply = inner_->Query(request);
    if (reply.ok() && calls_.fetch_add(1) >= skip_) reply->result_size += 1;
    return reply;
  }

 private:
  std::shared_ptr<ServiceBackend> inner_;
  const int skip_;
  std::atomic<int> calls_{0};
};

TEST(FailedRatioTest, CorruptedReplyCountsAsFailed) {
  RunConfig config = Tiny("hot_repeat", false);
  config.stack.wrap = [](std::shared_ptr<ServiceBackend> backend,
                         const char* role) -> std::shared_ptr<ServiceBackend> {
    if (std::string(role) != "front") return backend;
    return std::make_shared<CorruptingBackend>(std::move(backend), 8);
  };
  auto report = RunWorkload(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->tally.mismatched, 0);
  EXPECT_EQ(report->tally.mismatched, report->tally.checked);
  EXPECT_EQ(report->tally.failed(), report->tally.mismatched);
  EXPECT_FALSE(report->correct());
}

class EveryWorkloadTest : public testing::TestWithParam<std::string> {};

TEST_P(EveryWorkloadTest, RunsUntracedAtTinySize) {
  auto report = RunWorkload(Tiny(GetParam(), false));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->tally.ok, 0);
  EXPECT_EQ(report->tally.failed(), 0) << report->tally.first_problem;
  EXPECT_GT(report->tally.checked, 0);
  for (const char* name :
       {"qps", "p50_ms", "cpu_ms_per_query", "setup_s", "peak_rss_mb"}) {
    EXPECT_TRUE(HasMetric(*report, name)) << name;
  }
  // p90_ms is reported exactly when the window gathered enough samples.
  EXPECT_EQ(HasMetric(*report, "p90_ms"),
            static_cast<size_t>(report->tally.ok) >= MinSamplesFor(0.9));
}

TEST_P(EveryWorkloadTest, RunsTracedAtTinySize) {
  auto report = RunWorkload(Tiny(GetParam(), true));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->tally.failed(), 0) << report->tally.first_problem;
  std::set<std::string> names;
  for (const Metric& m : report->metrics) {
    EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
  }
  for (const char* name :
       {"net.roundtrip_ms", "net.backend_ms", "net.wire_ms",
        "engine.solve_ms", "solver.dominance_tests", "arena.speedup",
        "prefs.map_ms", "index.kdtree_build_ms", "io.snapshot_load_ms",
        "simd.dominance_count_ns_per_row"}) {
    EXPECT_TRUE(names.count(name)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EveryWorkloadTest, testing::ValuesIn(WorkloadNames()),
    [](const testing::TestParamInfo<std::string>& info) { return info.param; });

}  // namespace
}  // namespace perfbench
