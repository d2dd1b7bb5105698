// Copyright 2026 The ARSP Authors.
//
// The metrics registry (src/obs/metrics.h): counter/gauge/histogram
// mechanics, instrument identity under label reordering, Prometheus text
// exposition shape, concurrent-increment exactness (which is also what the
// TSan job exercises), and the /metrics HTTP scrape endpoint over a real
// socket.

#include "src/obs/metrics.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics_http.h"

namespace arsp {
namespace obs {
namespace {

TEST(CounterTest, IncAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  // The striped-shard design must lose nothing under contention.
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncsPerThread; ++i) c.Inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(),
            static_cast<uint64_t>(kThreads) * kIncsPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  EXPECT_EQ(g.Value(), 10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.Value(), -5);
}

TEST(HistogramTest, ObservationsLandInCorrectBuckets) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // <= 1
  h.Observe(1.0);    // <= 1 (bounds are upper-inclusive)
  h.Observe(5.0);    // <= 10
  h.Observe(100.0);  // <= 100
  h.Observe(999.0);  // +Inf overflow
  const std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_NEAR(h.Sum(), 0.5 + 1.0 + 5.0 + 100.0 + 999.0, 1e-6);
}

TEST(HistogramTest, ConcurrentObservesAreExact) {
  Histogram h(Histogram::LatencyBucketsMs());
  constexpr int kThreads = 8;
  constexpr int kObsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObsPerThread; ++i) {
        h.Observe(static_cast<double>(t) + 0.5);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(),
            static_cast<uint64_t>(kThreads) * kObsPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t c : h.BucketCounts()) bucket_total += c;
  EXPECT_EQ(bucket_total, h.Count());
}

TEST(HistogramTest, LatencyBucketsAreAscendingAndWide) {
  const std::vector<double> bounds = Histogram::LatencyBucketsMs();
  ASSERT_GE(bounds.size(), 10u);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  EXPECT_LE(bounds.front(), 0.25);
  EXPECT_GE(bounds.back(), 8192.0);
}

TEST(HistogramTest, QuantileStaysInTheBucketOfTheRankedSample) {
  const std::vector<double> bounds = Histogram::LatencyBucketsMs();
  Histogram h(bounds);
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // empty

  // 1,000 log-spaced samples from 2^-6 to 2^12 ms, plus one past the last
  // bound (the +Inf bucket).
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) {
    samples.push_back(std::exp2(-6.0 + 18.0 * i / 999.0));
  }
  samples.push_back(bounds.back() * 10.0);
  for (double v : samples) h.Observe(v);
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());

  for (double q : {0.0, 0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const size_t rank =
        std::max<size_t>(1, static_cast<size_t>(std::ceil(q * n)));
    const double sample = samples[rank - 1];
    // The sample's bucket: (lower, upper], the first bucket starting at 0;
    // the +Inf bucket's estimate is the last finite bound.
    const size_t b = static_cast<size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), sample) -
        bounds.begin());
    const double lower = b == 0 ? 0.0 : bounds[b - 1];
    const double upper = b == bounds.size() ? bounds.back() : bounds[b];
    const double estimate = h.Quantile(q);
    EXPECT_GE(estimate, lower) << "q=" << q << " sample=" << sample;
    EXPECT_LE(estimate, upper) << "q=" << q << " sample=" << sample;
  }

  // Inside its bucket the estimate moves linearly with the rank.
  Histogram one_bucket({1.0, 2.0});
  for (int i = 0; i < 4; ++i) one_bucket.Observe(1.5);
  EXPECT_DOUBLE_EQ(one_bucket.Quantile(0.25), 1.25);
  EXPECT_DOUBLE_EQ(one_bucket.Quantile(0.5), 1.5);
}

TEST(RegistryTest, SameNameAndLabelsYieldSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("arsp_test_total", {{"k", "v"}});
  Counter* b = registry.GetCounter("arsp_test_total", {{"k", "v"}});
  EXPECT_EQ(a, b);
  Counter* other = registry.GetCounter("arsp_test_total", {{"k", "w"}});
  EXPECT_NE(a, other);
}

TEST(RegistryTest, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("arsp_test_total",
                                   {{"a", "1"}, {"b", "2"}});
  Counter* b = registry.GetCounter("arsp_test_total",
                                   {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(RegistryTest, HistogramBoundsFixedAtFirstCreation) {
  MetricsRegistry registry;
  Histogram* first =
      registry.GetHistogram("arsp_test_ms", {1.0, 2.0}, {});
  Histogram* second =
      registry.GetHistogram("arsp_test_ms", {5.0, 6.0, 7.0}, {});
  EXPECT_EQ(first, second);
  EXPECT_EQ(first->bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(RegistryTest, PrometheusTextShape) {
  MetricsRegistry registry;
  registry.GetCounter("arsp_queries_total", {{"solver", "kdtt+"}},
                      "Queries served.")
      ->Inc(3);
  registry.GetGauge("arsp_bytes_mapped", {}, "Mapped snapshot bytes.")
      ->Set(4096);
  Histogram* h = registry.GetHistogram("arsp_latency_ms", {1.0, 10.0}, {},
                                       "Query latency.");
  h->Observe(0.5);
  h->Observe(50.0);

  const std::string text = registry.RenderPrometheusText();
  // Counter family: HELP, TYPE, and the labeled series with its value.
  EXPECT_NE(text.find("# HELP arsp_queries_total Queries served."),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE arsp_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("arsp_queries_total{solver=\"kdtt+\"} 3"),
            std::string::npos);
  // Gauge.
  EXPECT_NE(text.find("# TYPE arsp_bytes_mapped gauge"), std::string::npos);
  EXPECT_NE(text.find("arsp_bytes_mapped 4096"), std::string::npos);
  // Histogram: cumulative le-buckets, +Inf, _sum and _count series.
  EXPECT_NE(text.find("# TYPE arsp_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("arsp_latency_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("arsp_latency_ms_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("arsp_latency_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("arsp_latency_ms_count 2"), std::string::npos);
  EXPECT_NE(text.find("arsp_latency_ms_sum 50.5"), std::string::npos);
  // Families render in lexical order.
  EXPECT_LT(text.find("arsp_bytes_mapped"), text.find("arsp_latency_ms"));
  EXPECT_LT(text.find("arsp_latency_ms"), text.find("arsp_queries_total"));
  // Exposition format ends every line with \n (last line included).
  EXPECT_EQ(text.back(), '\n');
}

TEST(RegistryTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("arsp_esc_total",
                      {{"path", "a\"b\\c\nd"}})
      ->Inc();
  const std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(RegistryTest, ConcurrentLookupsAndIncrements) {
  // Registration takes the only lock; hammer it from many threads while
  // incrementing to give TSan something to chew on.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 2000; ++i) {
        registry
            .GetCounter("arsp_shared_total",
                        {{"worker", std::to_string(t % 2)}})
            ->Inc();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t total =
      registry.GetCounter("arsp_shared_total", {{"worker", "0"}})->Value() +
      registry.GetCounter("arsp_shared_total", {{"worker", "1"}})->Value();
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * 2000);
}

TEST(RegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

// Sends raw HTTP bytes to 127.0.0.1:port and returns the full response
// (the server closes the connection after each reply).
std::string RawHttp(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpTest, ServesRegistrySnapshotAndRejectsEverythingElse) {
  MetricsRegistry registry;
  registry.GetCounter("arsp_http_test_total", {}, "Scrape test.")->Inc(7);

  MetricsHttpServer server(&registry);
  const Status started = server.Start("127.0.0.1", 0);  // ephemeral port
  ASSERT_TRUE(started.ok()) << started.ToString();
  ASSERT_GT(server.port(), 0);

  const std::string ok =
      RawHttp(server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(ok.find("HTTP/1.0 200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(ok.find("arsp_http_test_total 7"), std::string::npos);

  // Query strings are ignored; the path still resolves.
  const std::string with_query =
      RawHttp(server.port(), "GET /metrics?debug=1 HTTP/1.1\r\n\r\n");
  EXPECT_NE(with_query.find("200 OK"), std::string::npos);

  const std::string not_found =
      RawHttp(server.port(), "GET /other HTTP/1.0\r\n\r\n");
  EXPECT_NE(not_found.find("404"), std::string::npos);

  const std::string not_get =
      RawHttp(server.port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(not_get.find("405"), std::string::npos);

  // Double-start while running is refused; Shutdown is idempotent and
  // releases the port for a future Start.
  EXPECT_FALSE(server.Start("127.0.0.1", 0).ok());
  server.Shutdown();
  server.Shutdown();
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());
  EXPECT_NE(RawHttp(server.port(), "GET /metrics HTTP/1.0\r\n\r\n")
                .find("200 OK"),
            std::string::npos);
  server.Shutdown();
}

TEST(MetricsHttpTest, ScrapeReflectsLiveUpdates) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("arsp_live_total");
  MetricsHttpServer server(&registry);
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());
  c->Inc();
  EXPECT_NE(RawHttp(server.port(), "GET /metrics HTTP/1.0\r\n\r\n")
                .find("arsp_live_total 1"),
            std::string::npos);
  c->Inc(9);
  EXPECT_NE(RawHttp(server.port(), "GET /metrics HTTP/1.0\r\n\r\n")
                .find("arsp_live_total 10"),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace arsp
