// Copyright 2026 The ARSP Authors.
//
// Process-global metrics registry: named counters, gauges, and fixed-bucket
// histograms with Prometheus text exposition. Dependency-free (no src/net,
// no src/core) so every layer can record without cycles.
//
// Hot-path contract: once a caller holds a Counter*/Gauge*/Histogram*, every
// increment/observe is lock-free — counters stripe their value across
// cache-line-padded atomic shards keyed by thread, histograms use one
// relaxed atomic per bucket. Only registration (name → instrument lookup)
// takes a lock, and even that is a shared_mutex read lock once the
// instrument exists. Instruments live for the process lifetime; pointers
// never dangle.
//
// Naming scheme (see ARCHITECTURE.md "Observability"): arsp_<noun>_<unit>
// with _total for counters, e.g. arsp_queries_total{solver="kdtt+",
// goal="topk",outcome="ok"}. Labels are baked into the instrument at
// lookup time — one instrument per label combination, exactly how the
// Prometheus client model works.

#ifndef ARSP_OBS_METRICS_H_
#define ARSP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

namespace arsp {
namespace obs {

/// One (label name, label value) pair; vectors of these are sorted by name
/// at lookup so {a=1,b=2} and {b=2,a=1} resolve to the same instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter, striped across cache-line-padded atomic shards so
/// concurrent writers from different threads don't bounce one line.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) {
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr int kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  static size_t ShardIndex();
  Shard shards_[kShards];
};

/// Last-write-wins gauge (plus Add for up/down counts like live
/// connections).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram. Bucket upper bounds are set at registration and
/// immutable after; Observe is a binary search over the bounds plus three
/// relaxed atomic adds. Exposed in Prometheus cumulative-bucket form.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v);

  /// Upper bounds, ascending; the implicit +Inf bucket is not included.
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts, bounds().size() + 1 entries (the
  /// last is the +Inf overflow bucket).
  std::vector<uint64_t> BucketCounts() const;
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;

  /// Estimated q-quantile (q clamped to [0, 1]) by Prometheus'
  /// histogram_quantile rule: find the bucket holding rank q·count and
  /// interpolate linearly inside it (the first bucket starts at 0). A rank
  /// in the +Inf bucket returns the last finite bound. 0 when empty.
  double Quantile(double q) const;

  /// Default latency bucket bounds in milliseconds: quarter-octave steps
  /// 2^(k/4) from 2^-8 ms (3.9 µs) to 2^13 ms (8.2 s), 85 bounds — wide
  /// enough for cache hits and cold solves alike, and narrow enough that a
  /// Quantile estimate stays within 19% (2^(1/4)) of the ranked sample.
  static std::vector<double> LatencyBucketsMs();

 private:
  std::vector<double> bounds_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> buckets_;
  std::atomic<uint64_t> count_{0};
  // Sum as fixed-point microunits so it can be a lock-free integer atomic.
  std::atomic<int64_t> sum_micros_{0};
};

/// The registry. Process-global via Global(); separate instances exist only
/// for tests.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// Finds or creates the instrument for (name, labels). The returned
  /// pointer is valid for the registry's lifetime. `help` is recorded the
  /// first time a family is seen.
  Counter* GetCounter(const std::string& name, const Labels& labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const Labels& labels = {},
                  const std::string& help = "");
  /// `bounds` applies only on first creation of this (name, labels) series;
  /// later calls return the existing histogram regardless of bounds.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds,
                          const Labels& labels = {},
                          const std::string& help = "");

  /// Prometheus text exposition format, version 0.0.4: # HELP / # TYPE per
  /// family, one line per series, families and series in lexical order.
  std::string RenderPrometheusText() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    std::string label_text;  // rendered {k="v",...} or ""
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind;
    std::string help;
    std::map<std::string, Series> series;  // keyed by label_text
  };

  Series* FindOrCreate(const std::string& name, const Labels& labels,
                       const std::string& help, Kind kind,
                       std::vector<double>* bounds);

  mutable std::shared_mutex mu_;
  std::map<std::string, Family> families_;
};

}  // namespace obs
}  // namespace arsp

#endif  // ARSP_OBS_METRICS_H_
