// Copyright 2026 The ARSP Authors.

#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>

namespace arsp {
namespace obs {

namespace {

// %.17g round-trips doubles; trims to a clean integer rendering when exact.
std::string Num(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Prometheus label values escape backslash, double-quote, and newline.
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string RenderLabels(Labels labels) {
  if (labels.empty()) return "";
  std::sort(labels.begin(), labels.end());
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += EscapeLabelValue(v);
    out += "\"";
  }
  out += "}";
  return out;
}

// Inserts extra labels (for histogram `le`) into an already-rendered label
// text.
std::string WithLabel(const std::string& label_text, const std::string& key,
                      const std::string& value) {
  std::string pair = key + "=\"" + EscapeLabelValue(value) + "\"";
  if (label_text.empty()) return "{" + pair + "}";
  std::string out = label_text;
  out.insert(out.size() - 1, "," + pair);
  return out;
}

}  // namespace

// ------------------------------------------------------------------ Counter

size_t Counter::ShardIndex() {
  // A cheap thread-local stripe assignment: hash the thread id once.
  static thread_local const size_t stripe =
      std::hash<std::thread::id>()(std::this_thread::get_id());
  return stripe % kShards;
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_.reserve(bounds_.size() + 1);
  for (size_t i = 0; i < bounds_.size() + 1; ++i) {
    buckets_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }
}

void Histogram::Observe(double v) {
  // The first bound >= v (bounds are upper-inclusive); past the last one is
  // the +Inf bucket.
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[bucket]->fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(static_cast<int64_t>(v * 1e6),
                        std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts;
  counts.reserve(buckets_.size());
  for (const auto& bucket : buckets_) {
    counts.push_back(bucket->load(std::memory_order_relaxed));
  }
  return counts;
}

double Histogram::Sum() const {
  return static_cast<double>(sum_micros_.load(std::memory_order_relaxed)) /
         1e6;
}

double Histogram::Quantile(double q) const {
  // One snapshot of the buckets; their sum is the count, so a concurrent
  // Observe between the loads cannot push the rank past the last bucket.
  const std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  // The first non-empty bucket whose cumulative count reaches the rank
  // (non-empty, so q = 0 lands on the smallest sample's bucket).
  uint64_t below = 0;
  size_t b = 0;
  while (counts[b] == 0 || static_cast<double>(below + counts[b]) < rank) {
    below += counts[b];
    ++b;
  }
  if (b == bounds_.size()) return bounds_.empty() ? 0.0 : bounds_.back();
  const double start = b == 0 ? 0.0 : bounds_[b - 1];
  const double fraction = std::max(0.0, rank - static_cast<double>(below)) /
                          static_cast<double>(counts[b]);
  return start + (bounds_[b] - start) * fraction;
}

std::vector<double> Histogram::LatencyBucketsMs() {
  std::vector<double> bounds;
  for (int k = -8 * 4; k <= 13 * 4; ++k) {
    bounds.push_back(std::exp2(static_cast<double>(k) / 4.0));
  }
  return bounds;
}

// ----------------------------------------------------------------- Registry

MetricsRegistry& MetricsRegistry::Global() {
  static auto* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Series* MetricsRegistry::FindOrCreate(
    const std::string& name, const Labels& labels, const std::string& help,
    Kind kind, std::vector<double>* bounds) {
  const std::string label_text = RenderLabels(labels);
  {
    std::shared_lock lock(mu_);
    auto fit = families_.find(name);
    if (fit != families_.end()) {
      auto sit = fit->second.series.find(label_text);
      if (sit != fit->second.series.end()) return &sit->second;
    }
  }
  std::unique_lock lock(mu_);
  Family& family = families_[name];
  if (family.series.empty()) {
    family.kind = kind;
    family.help = help;
  }
  Series& series = family.series[label_text];
  if (series.label_text.empty() && series.counter == nullptr &&
      series.gauge == nullptr && series.histogram == nullptr) {
    series.label_text = label_text;
    switch (family.kind) {
      case Kind::kCounter:
        series.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        series.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        series.histogram = std::make_unique<Histogram>(
            bounds != nullptr ? std::move(*bounds) : std::vector<double>{});
        break;
    }
  }
  return &series;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels,
                                     const std::string& help) {
  return FindOrCreate(name, labels, help, Kind::kCounter, nullptr)
      ->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const Labels& labels,
                                 const std::string& help) {
  return FindOrCreate(name, labels, help, Kind::kGauge, nullptr)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         const Labels& labels,
                                         const std::string& help) {
  return FindOrCreate(name, labels, help, Kind::kHistogram, &bounds)
      ->histogram.get();
}

std::string MetricsRegistry::RenderPrometheusText() const {
  std::shared_lock lock(mu_);
  std::ostringstream out;
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out << "# HELP " << name << " " << family.help << "\n";
    }
    const char* type = family.kind == Kind::kCounter    ? "counter"
                       : family.kind == Kind::kGauge    ? "gauge"
                                                        : "histogram";
    out << "# TYPE " << name << " " << type << "\n";
    for (const auto& [label_text, series] : family.series) {
      switch (family.kind) {
        case Kind::kCounter:
          out << name << label_text << " " << series.counter->Value() << "\n";
          break;
        case Kind::kGauge:
          out << name << label_text << " " << series.gauge->Value() << "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *series.histogram;
          const std::vector<uint64_t> counts = h.BucketCounts();
          uint64_t cumulative = 0;
          for (size_t i = 0; i < h.bounds().size(); ++i) {
            cumulative += counts[i];
            out << name << "_bucket"
                << WithLabel(label_text, "le", Num(h.bounds()[i])) << " "
                << cumulative << "\n";
          }
          cumulative += counts.back();
          out << name << "_bucket" << WithLabel(label_text, "le", "+Inf")
              << " " << cumulative << "\n";
          out << name << "_sum" << label_text << " " << Num(h.Sum()) << "\n";
          out << name << "_count" << label_text << " " << h.Count() << "\n";
          break;
        }
      }
    }
  }
  return out.str();
}

}  // namespace obs
}  // namespace arsp
