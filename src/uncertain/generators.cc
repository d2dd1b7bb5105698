// Copyright 2026 The ARSP Authors.

#include "src/uncertain/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "src/common/rng.h"
#include "src/uncertain/dataset_view.h"

namespace arsp {

namespace {

double Clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

// Object center by distribution, in [0,1]^d.
Point MakeCenter(Distribution dist, int dim, Rng& rng) {
  Point c(dim);
  switch (dist) {
    case Distribution::kIndependent:
      for (int i = 0; i < dim; ++i) c[i] = rng.Uniform01();
      break;
    case Distribution::kCorrelated: {
      // Points near the main diagonal: a shared position plus small noise.
      const double u = rng.Uniform01();
      for (int i = 0; i < dim; ++i) c[i] = Clamp01(u + rng.Normal(0.0, 0.05));
      break;
    }
    case Distribution::kAntiCorrelated: {
      // Points near the hyperplane Σ x_i ≈ d/2 with strong per-dimension
      // spread: good in one attribute implies bad in others.
      const double level = rng.ClampedNormal(0.5, 0.05, 0.0, 1.0);
      std::vector<double> g(static_cast<size_t>(dim));
      double sum = 0.0;
      for (int i = 0; i < dim; ++i) {
        g[static_cast<size_t>(i)] = rng.Uniform01() + 1e-9;
        sum += g[static_cast<size_t>(i)];
      }
      for (int i = 0; i < dim; ++i) {
        c[i] = Clamp01(level * dim * g[static_cast<size_t>(i)] / sum);
      }
      break;
    }
  }
  return c;
}

}  // namespace

const char* DistributionName(Distribution dist) {
  switch (dist) {
    case Distribution::kIndependent:
      return "IND";
    case Distribution::kAntiCorrelated:
      return "ANTI";
    case Distribution::kCorrelated:
      return "CORR";
  }
  return "?";
}

UncertainDataset GenerateSynthetic(const SyntheticConfig& config) {
  ARSP_CHECK(config.num_objects >= 1);
  ARSP_CHECK(config.max_instances >= 1);
  ARSP_CHECK(config.dim >= 1);
  ARSP_CHECK(config.phi >= 0.0 && config.phi <= 1.0);
  Rng rng(config.seed);
  UncertainDatasetBuilder builder(config.dim);

  const int num_truncated =
      static_cast<int>(config.phi * config.num_objects + 0.5);

  for (int j = 0; j < config.num_objects; ++j) {
    const bool truncated = j < num_truncated;
    const Point center = MakeCenter(config.distribution, config.dim, rng);

    // Rectangle edge lengths ~ N(l/2, l/8) clamped to [0, l], per dimension.
    Point half(config.dim);
    for (int i = 0; i < config.dim; ++i) {
      half[i] = rng.ClampedNormal(config.region_length / 2.0,
                                  config.region_length / 8.0, 0.0,
                                  config.region_length) /
                2.0;
    }

    // Instance count ~ Uniform[1, cnt]; objects that will lose one instance
    // need at least 2 so they do not vanish.
    int count = rng.UniformInt(truncated ? 2 : 1,
                               std::max(config.max_instances, truncated ? 2 : 1));
    const double prob = 1.0 / static_cast<double>(count);

    const int kept = truncated ? count - 1 : count;
    std::vector<Point> points;
    std::vector<double> probs;
    points.reserve(static_cast<size_t>(kept));
    for (int i = 0; i < kept; ++i) {
      Point p(config.dim);
      for (int k = 0; k < config.dim; ++k) {
        p[k] = Clamp01(center[k] + rng.Uniform(-half[k], half[k]));
      }
      points.push_back(std::move(p));
      probs.push_back(prob);
    }
    builder.AddObject(std::move(points), std::move(probs));
  }
  auto dataset = builder.Build();
  ARSP_CHECK_MSG(dataset.ok(), "synthetic generator produced invalid data: %s",
                 dataset.status().ToString().c_str());
  return std::move(dataset).value();
}

UncertainDataset GenerateIipLike(int num_records, uint64_t seed) {
  ARSP_CHECK(num_records >= 1);
  Rng rng(seed);
  UncertainDatasetBuilder builder(2);
  for (int j = 0; j < num_records; ++j) {
    // Melting percentage and drifting days, mildly correlated: the longer an
    // iceberg drifts, the more it melts. Lower is preferred for both.
    const double drift_days = rng.Uniform(0.0, 600.0);
    const double melt =
        std::min(100.0, std::max(0.0, drift_days / 6.0 + rng.Normal(0.0, 18.0)));
    // Confidence by sighting source: R/V 0.8, VIS 0.7, RAD 0.6.
    const double roll = rng.Uniform01();
    const double conf = roll < 0.45 ? 0.8 : (roll < 0.75 ? 0.7 : 0.6);
    builder.AddSingleton(Point{melt, drift_days}, conf);
  }
  auto dataset = builder.Build();
  ARSP_CHECK(dataset.ok());
  return std::move(dataset).value();
}

UncertainDataset GenerateCarLike(int num_models, uint64_t seed) {
  ARSP_CHECK(num_models >= 1);
  Rng rng(seed);
  UncertainDatasetBuilder builder(4);
  for (int j = 0; j < num_models; ++j) {
    // Model-level quality factor drives all four attributes; individual cars
    // scatter widely around it (the paper notes CAR has large attribute
    // variance). Orientation: lower is better, so power and year are negated.
    const double quality = rng.Uniform01();
    const int cars = rng.UniformInt(1, 30);
    std::vector<Point> points;
    std::vector<double> probs;
    for (int i = 0; i < cars; ++i) {
      const double price =
          5000.0 + 60000.0 * (1.0 - quality) + rng.Normal(0.0, 9000.0);
      const double power = 60.0 + 300.0 * quality + rng.Normal(0.0, 45.0);
      const double mileage =
          rng.Uniform(0.0, 250000.0) * (0.4 + 0.6 * (1.0 - quality));
      const double year = 2000.0 + 22.0 * quality + rng.Normal(0.0, 4.0);
      points.push_back(Point{std::max(500.0, price), -std::max(40.0, power),
                             std::max(0.0, mileage), -year});
      probs.push_back(1.0 / static_cast<double>(cars));
    }
    builder.AddObject(std::move(points), std::move(probs));
  }
  auto dataset = builder.Build();
  ARSP_CHECK(dataset.ok());
  return std::move(dataset).value();
}

std::vector<std::string> NbaMetricNames(int dim) {
  static const char* kAll[8] = {"rebounds", "assists",   "points",
                                "steals",   "blocks",    "turnovers",
                                "minutes",  "field_goals"};
  ARSP_CHECK(dim >= 1 && dim <= 8);
  std::vector<std::string> out;
  for (int i = 0; i < dim; ++i) out.emplace_back(kAll[i]);
  return out;
}

UncertainDataset GenerateNbaLike(int num_players, int dim, uint64_t seed,
                                 std::vector<std::string>* names) {
  ARSP_CHECK(num_players >= 1);
  ARSP_CHECK(dim >= 1 && dim <= 8);
  Rng rng(seed);
  UncertainDatasetBuilder builder(dim);
  if (names != nullptr) names->clear();

  // Per-metric league-wide scale (per game): rebounds, assists, points,
  // steals, blocks, turnovers, minutes, field goals made.
  static const double kScale[8] = {5.0, 3.5, 12.0, 0.9, 0.6, 1.8, 24.0, 4.5};

  for (int j = 0; j < num_players; ++j) {
    // Latent overall skill is heavy-tailed so genuine stars exist; each
    // metric gets a strong independent tilt so rebounders, passers and
    // scorers are genuinely different players — without it the aggregated
    // rskyline collapses to a single all-round star, unlike the paper's
    // Table I where several specialists coexist.
    const double overall = std::exp(rng.Normal(0.0, 0.25));
    // Playing position drives anti-correlated specialisation: bigs rebound
    // and block, guards assist and steal. Without it a single all-rounder
    // F-dominates the whole league on average, which real rosters (and the
    // paper's Table I, where specialists like Gobert and Capela co-exist
    // with Jokic) do not show.
    const double position = rng.Uniform(-1.0, 1.0);
    static const double kPositionLoad[8] = {1.0,  -1.0, 0.0, -0.7,
                                            1.2,  -0.3, 0.1, 0.2};
    std::vector<double> skill(static_cast<size_t>(dim));
    for (int k = 0; k < dim; ++k) {
      skill[static_cast<size_t>(k)] =
          overall *
          std::exp(kPositionLoad[k] * position + rng.Normal(0.0, 0.4));
    }
    // Per-player game-to-game volatility: some players are consistent, some
    // streaky — the Table-I analysis depends on both kinds existing. Real
    // game logs are very noisy (half the league has zero-point games and
    // 20-point games), so volatility is high across the board.
    const double volatility = rng.Uniform(0.35, 0.9);

    const int games = rng.UniformInt(20, 180);
    std::vector<Point> points;
    std::vector<double> probs;
    points.reserve(static_cast<size_t>(games));
    for (int g = 0; g < games; ++g) {
      Point p(dim);
      for (int k = 0; k < dim; ++k) {
        double v = kScale[k] * skill[static_cast<size_t>(k)] *
                   std::max(0.0, 1.0 + rng.Normal(0.0, volatility));
        // Turnovers (index 5) are already lower-is-better; every other
        // metric counts up, so negate for the lower-preferred convention.
        p[k] = (k == 5) ? v : -v;
      }
      points.push_back(std::move(p));
      probs.push_back(1.0 / static_cast<double>(games));
    }
    builder.AddObject(std::move(points), std::move(probs));
    if (names != nullptr) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "Player-%03d", j + 1);
      names->emplace_back(buf);
    }
  }
  auto dataset = builder.Build();
  ARSP_CHECK(dataset.ok());
  return std::move(dataset).value();
}

std::vector<Point> AggregateByMean(const UncertainDataset& dataset) {
  std::vector<Point> out;
  out.reserve(static_cast<size_t>(dataset.num_objects()));
  for (int j = 0; j < dataset.num_objects(); ++j) {
    const auto [begin, end] = dataset.object_range(j);
    Point mean(dataset.dim());
    double total = 0.0;
    for (int i = begin; i < end; ++i) {
      const double p = dataset.prob(i);
      const double* row = dataset.coords(i);
      for (int k = 0; k < dataset.dim(); ++k) {
        mean[k] += p * row[k];
      }
      total += p;
    }
    ARSP_CHECK(total > 0.0);
    for (int k = 0; k < dataset.dim(); ++k) mean[k] /= total;
    out.push_back(std::move(mean));
  }
  return out;
}

UncertainDataset TakeObjects(const UncertainDataset& dataset, int count) {
  ARSP_CHECK(count >= 1 && count <= dataset.num_objects());
  // The explicit-copy path: a materialized prefix view. Query paths that
  // only need to *read* the prefix should use DatasetView directly.
  return DatasetView::Create(dataset, count).value().Materialize();
}

namespace {

// "key=value,key=value" bag for generator specs. All values stay strings;
// typed reads validate on use so error messages can name the key.
class SpecParams {
 public:
  static StatusOr<SpecParams> Parse(const std::string& text) {
    SpecParams params;
    std::string token;
    for (size_t i = 0; i <= text.size(); ++i) {
      if (i < text.size() && text[i] != ',') {
        token += text[i];
        continue;
      }
      if (token.empty()) {
        token.clear();
        continue;  // tolerate "a=1,,b=2" and trailing commas
      }
      const size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
        return Status::InvalidArgument("generator spec token '" + token +
                                       "' is not key=value");
      }
      params.values_[token.substr(0, eq)] = token.substr(eq + 1);
      token.clear();
    }
    return params;
  }

  StatusOr<int64_t> IntOr(const std::string& key, int64_t def) {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    used_.insert(key);
    char* end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (end != it->second.c_str() + it->second.size() || it->second.empty()) {
      return Status::InvalidArgument("generator spec key '" + key +
                                     "' needs an integer (got '" +
                                     it->second + "')");
    }
    return static_cast<int64_t>(v);
  }

  StatusOr<double> DoubleOr(const std::string& key, double def) {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    used_.insert(key);
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end != it->second.c_str() + it->second.size() || it->second.empty()) {
      return Status::InvalidArgument("generator spec key '" + key +
                                     "' needs a number (got '" + it->second +
                                     "')");
    }
    return v;
  }

  StatusOr<Distribution> DistOr(const std::string& key, Distribution def) {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    used_.insert(key);
    if (it->second == "IND") return Distribution::kIndependent;
    if (it->second == "ANTI") return Distribution::kAntiCorrelated;
    if (it->second == "CORR") return Distribution::kCorrelated;
    return Status::InvalidArgument("generator spec key '" + key +
                                   "' must be IND, ANTI, or CORR (got '" +
                                   it->second + "')");
  }

  /// InvalidArgument naming the first key no typed read consumed — typos
  /// fail instead of silently falling back to defaults.
  Status ExpectAllUsed() const {
    for (const auto& [key, value] : values_) {
      if (used_.count(key) == 0) {
        return Status::InvalidArgument("unknown generator spec key '" + key +
                                       "'");
      }
    }
    return Status::OK();
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
};

// Pulls a value out of a StatusOr or propagates its error.
#define ARSP_SPEC_ASSIGN(lhs, expr)            \
  do {                                         \
    auto _v = (expr);                          \
    if (!_v.ok()) return _v.status();          \
    lhs = *_v;                                 \
  } while (0)

void FillPlaceholderNames(int count, std::vector<std::string>* names) {
  if (names == nullptr) return;
  names->clear();
  names->reserve(static_cast<size_t>(count));
  for (int j = 0; j < count; ++j) names->push_back("obj-" + std::to_string(j));
}

// Upper bound on spec-controlled counts (objects, instances per object).
// Values are narrowed to int below, so without a cap 2^32+5 would wrap to
// 5 and silently generate the wrong dataset; the bound also keeps a wire
// LOAD_DATASET from requesting an absurd allocation. strtoll overflow
// saturates at LLONG_MAX and lands above the cap, so it is caught too.
constexpr int64_t kMaxSpecCount = 100'000'000;

}  // namespace

StatusOr<UncertainDataset> GenerateFromSpec(const std::string& spec,
                                            std::vector<std::string>* names) {
  const size_t colon = spec.find(':');
  const std::string family = spec.substr(0, colon);
  auto params = SpecParams::Parse(
      colon == std::string::npos ? std::string() : spec.substr(colon + 1));
  if (!params.ok()) return params.status();

  if (family == "synthetic") {
    SyntheticConfig config;
    ARSP_SPEC_ASSIGN(config.num_objects, params->IntOr("m", config.num_objects));
    ARSP_SPEC_ASSIGN(config.max_instances,
                     params->IntOr("cnt", config.max_instances));
    ARSP_SPEC_ASSIGN(config.dim, params->IntOr("d", config.dim));
    ARSP_SPEC_ASSIGN(config.region_length,
                     params->DoubleOr("l", config.region_length));
    ARSP_SPEC_ASSIGN(config.phi, params->DoubleOr("phi", config.phi));
    ARSP_SPEC_ASSIGN(config.distribution,
                     params->DistOr("dist", config.distribution));
    ARSP_SPEC_ASSIGN(config.seed, params->IntOr("seed", 42));
    ARSP_RETURN_IF_ERROR(params->ExpectAllUsed());
    if (config.num_objects < 1 || config.num_objects > kMaxSpecCount ||
        config.max_instances < 1 || config.max_instances > kMaxSpecCount ||
        config.dim < 1 || config.dim > 64 || config.phi < 0.0 ||
        config.phi > 1.0) {
      return Status::InvalidArgument(
          "synthetic spec needs m>=1, cnt>=1, d in [1,64], phi in [0,1] "
          "(counts capped at " + std::to_string(kMaxSpecCount) + ")");
    }
    UncertainDataset dataset = GenerateSynthetic(config);
    FillPlaceholderNames(dataset.num_objects(), names);
    return dataset;
  }
  if (family == "iip") {
    int64_t n = 0, seed = 1;
    ARSP_SPEC_ASSIGN(n, params->IntOr("n", 500));
    ARSP_SPEC_ASSIGN(seed, params->IntOr("seed", 1));
    ARSP_RETURN_IF_ERROR(params->ExpectAllUsed());
    if (n < 1 || n > kMaxSpecCount) {
      return Status::InvalidArgument("iip spec needs n in [1, " +
                                     std::to_string(kMaxSpecCount) + "]");
    }
    UncertainDataset dataset = GenerateIipLike(
        static_cast<int>(n), static_cast<uint64_t>(seed));
    FillPlaceholderNames(dataset.num_objects(), names);
    return dataset;
  }
  if (family == "car") {
    int64_t m = 0, seed = 1;
    ARSP_SPEC_ASSIGN(m, params->IntOr("m", 40));
    ARSP_SPEC_ASSIGN(seed, params->IntOr("seed", 1));
    ARSP_RETURN_IF_ERROR(params->ExpectAllUsed());
    if (m < 1 || m > kMaxSpecCount) {
      return Status::InvalidArgument("car spec needs m in [1, " +
                                     std::to_string(kMaxSpecCount) + "]");
    }
    UncertainDataset dataset =
        GenerateCarLike(static_cast<int>(m), static_cast<uint64_t>(seed));
    FillPlaceholderNames(dataset.num_objects(), names);
    return dataset;
  }
  if (family == "nba") {
    int64_t m = 0, d = 0, seed = 1;
    ARSP_SPEC_ASSIGN(m, params->IntOr("m", 50));
    ARSP_SPEC_ASSIGN(d, params->IntOr("d", 4));
    ARSP_SPEC_ASSIGN(seed, params->IntOr("seed", 1));
    ARSP_RETURN_IF_ERROR(params->ExpectAllUsed());
    if (m < 1 || m > kMaxSpecCount || d < 1 || d > 8) {
      return Status::InvalidArgument("nba spec needs m in [1, " +
                                     std::to_string(kMaxSpecCount) +
                                     "] and d in [1,8]");
    }
    return GenerateNbaLike(static_cast<int>(m), static_cast<int>(d),
                           static_cast<uint64_t>(seed), names);
  }
  return Status::InvalidArgument(
      "unknown generator family '" + family +
      "' (expected synthetic:, iip:, car:, or nba:)");
}

#undef ARSP_SPEC_ASSIGN

}  // namespace arsp
