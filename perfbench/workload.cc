// Copyright 2026 The ARSP Authors.

#include "perfbench/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <utility>

#include <unistd.h>

#include "src/common/rng.h"
#include "src/core/arsp_result.h"
#include "src/io/csv.h"
#include "src/io/snapshot.h"
#include "src/uncertain/generators.h"

namespace perfbench {

using arsp::Status;
using arsp::StatusOr;
using arsp::net::QueryRequestWire;
using arsp::net::QueryResponseWire;
using arsp::net::WireDerivedKind;

namespace {

// The dataset generators run from one fixed seed, so every run measures the
// same data (the shapes quoted in BENCHMARK.json are these). Seeding them
// from the run seed made the per-run medians of cluster_topk spread by 60%
// of their median across five seeds: the NBA-like skyline, and with it the
// cost of every query, changes with the generator seed far more than with
// the request stream. The run seed drives the request streams and the
// checked sample.
constexpr uint64_t kDataSeed = 1;

// Independent purposes draw from independent streams of the run seed.
constexpr uint64_t kTagRatios = 1;
constexpr uint64_t kTagSample = 3;

// The warm-up's weight-ratio spec: a stream index no window reaches.
constexpr uint64_t kWarmupIndex = uint64_t{1} << 63;

// Replies checked per window when not every reply is, drawn from the first
// kSampleWindow stream indices so that every full-size run answers them all.
constexpr int kSampleSize = 8;
constexpr int kSampleWindow = 32;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t tag, uint64_t index) {
  return SplitMix64(SplitMix64(seed ^ SplitMix64(tag)) + index);
}

// "wr:l1,h1,...": l ~ U[0.3, 1], h = l * U[1.5, 3] per range. The 2·ranges
// uniforms of request `index` are the index-th point of the R_d
// low-discrepancy sequence (frac(shift + index * alpha_j), alpha_j =
// phi_d^-(j+1), phi_d the positive root of x^(d+1) = x + 1) under a random
// shift drawn from the seed, in 64-bit fixed point. Every index is a fresh
// constraint, and any run's few hundred requests cover the range space
// evenly: with independent draws, which constraints a seed happened to get
// moved personal_topk's per-run p50 by 15% across five seeds.
std::string RatioSpec(uint64_t seed, uint64_t index, int ranges) {
  const int dims = 2 * ranges;
  double phi = 2.0;
  for (int it = 0; it < 64; ++it) phi = std::pow(1.0 + phi, 1.0 / (dims + 1));
  double u[2];
  std::string spec = "wr:";
  for (int r = 0; r < ranges; ++r) {
    for (int c = 0; c < 2; ++c) {
      const int j = 2 * r + c;
      const uint64_t alpha =
          static_cast<uint64_t>(std::ldexp(std::pow(phi, -(j + 1)), 64));
      const uint64_t x =
          StreamSeed(seed, kTagRatios, static_cast<uint64_t>(j)) +
          index * alpha;  // mod 2^64
      u[c] = std::ldexp(static_cast<double>(x >> 11), -53);
    }
    const double lo = 0.3 + 0.7 * u[0];
    const double hi = lo * (1.5 + 1.5 * u[1]);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.6f,%.6f", r == 0 ? "" : ",", lo, hi);
    spec += buf;
  }
  return spec;
}

QueryRequestWire Query(const std::string& spec, WireDerivedKind kind) {
  QueryRequestWire request;
  request.dataset = "data";
  request.constraint_spec = spec;
  request.derived_kind = kind;
  request.k = 10;
  request.threshold = 0.3;
  request.max_objects = 10;
  return request;
}

std::vector<uint64_t> SeededSample(uint64_t seed) {
  std::vector<uint64_t> offsets(kSampleWindow);
  std::iota(offsets.begin(), offsets.end(), 0);
  arsp::Rng rng(StreamSeed(seed, kTagSample, 0));
  std::shuffle(offsets.begin(), offsets.end(), rng.engine());
  offsets.resize(kSampleSize);
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

void SetShape(Workload* w, const arsp::UncertainDataset& data) {
  w->num_objects = data.num_objects();
  w->num_instances = data.num_instances();
  w->dim = data.dim();
}

void ShipCsv(Workload* w, const arsp::UncertainDataset& data,
             const std::vector<std::string>& names) {
  SetShape(w, data);
  w->load.name = "data";
  w->load.source = arsp::net::LoadSource::kCsvText;
  w->load.payload = RenderCsv(data, &names);
  w->input_bytes = static_cast<int64_t>(w->load.payload.size());
}

// Fresh-ratio stream: presets[0] is the template; the warm-up takes its
// constraint from an index no window reaches, so no timed request repeats
// it.
void UseFreshRatios(Workload* w, QueryRequestWire request) {
  w->presets = {request};
  w->fresh_ratios = true;
  request.constraint_spec = RatioSpec(w->seed, kWarmupIndex, w->dim - 1);
  w->warmup = {request};
}

arsp::DerivedKind ToDerivedKind(WireDerivedKind kind) {
  switch (kind) {
    case WireDerivedKind::kTopKObjects:
      return arsp::DerivedKind::kTopKObjects;
    case WireDerivedKind::kTopKInstances:
      return arsp::DerivedKind::kTopKInstances;
    case WireDerivedKind::kObjectsAboveThreshold:
      return arsp::DerivedKind::kObjectsAboveThreshold;
    case WireDerivedKind::kCountControlled:
      return arsp::DerivedKind::kCountControlled;
    case WireDerivedKind::kNone:
      break;
  }
  return arsp::DerivedKind::kNone;
}

void AppendDouble(std::string* out, double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), ",%.17g", v);
  out->append(buf, static_cast<size_t>(n));
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "hot_repeat", "personal_topk", "bulk_full", "cluster_topk"};
  return kNames;
}

ScratchFile::~ScratchFile() { std::remove(path_.c_str()); }

QueryRequestWire Workload::Request(uint64_t index) const {
  if (!fresh_ratios) return presets[index % presets.size()];
  QueryRequestWire request = presets.front();
  request.constraint_spec = RatioSpec(seed, index, dim - 1);
  return request;
}

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                Scale scale, const std::string& work_dir) {
  const bool tiny = scale == Scale::kTiny;
  Workload w;
  w.name = name;
  w.seed = seed;
  w.sample = SeededSample(seed);
  w.setups = tiny ? 1 : 5;
  if (name == "hot_repeat" || name == "cluster_topk") {
    std::vector<std::string> names;
    const int m = tiny ? 20 : 250;
    ShipCsv(&w, arsp::GenerateNbaLike(m, 3, kDataSeed, &names), names);
    w.data_line = "NBA-like m=" + std::to_string(m) + " d=3, inline CSV";
    if (name == "hot_repeat") {
      for (const char* spec : {"rank:1", "rank:2"}) {
        for (WireDerivedKind kind :
             {WireDerivedKind::kNone, WireDerivedKind::kTopKObjects,
              WireDerivedKind::kObjectsAboveThreshold,
              WireDerivedKind::kCountControlled}) {
          w.presets.push_back(Query(spec, kind));
        }
      }
      w.warmup = w.presets;
      w.check_all = true;
      w.derived_from_cached_full = true;
      w.request_line =
          "8 presets {rank:1,rank:2} x {full, top-10, threshold 0.3, "
          "count-controlled 10}, auto, cache on, round-robin, 2 connections";
    } else {
      w.cluster = true;
      QueryRequestWire request = Query("", WireDerivedKind::kTopKObjects);
      request.solver = "kdtt+";
      UseFreshRatios(&w, request);
      w.request_line =
          "fresh wr: spec per request, kdtt+, top-10, cache on, 2 "
          "connections, coordinator over 2 shard servers";
    }
  } else if (name == "personal_topk") {
    const int m = tiny ? 15 : 200;
    const arsp::UncertainDataset data = arsp::GenerateCarLike(m, kDataSeed);
    std::vector<std::string> names;
    for (int j = 0; j < data.num_objects(); ++j) {
      names.push_back("model-" + std::to_string(j));
    }
    ShipCsv(&w, data, names);
    w.data_line = "CAR-like m=" + std::to_string(m) + " d=4, inline CSV";
    UseFreshRatios(&w, Query("", WireDerivedKind::kTopKObjects));
    w.request_line =
        "fresh wr: spec per request, auto, top-10, cache on, 2 connections";
  } else if (name == "bulk_full") {
    // 1000 objects (about 50K instances), not 5000: at 250K instances the
    // solve's working set of tens of MB lives in a cache the whole host
    // shares, and across runs of the same code the per-run p50_ms spread by
    // 14% of its median with two workers and by a third with one per core.
    arsp::SyntheticConfig config;
    config.num_objects = tiny ? 300 : 1000;
    config.max_instances = tiny ? 10 : 100;
    config.dim = 3;
    config.region_length = 0.2;
    config.distribution = arsp::Distribution::kIndependent;
    config.seed = kDataSeed;
    const arsp::UncertainDataset data = arsp::GenerateSynthetic(config);
    SetShape(&w, data);
    std::error_code ec;
    std::filesystem::create_directories(work_dir, ec);
    const std::string path = (std::filesystem::absolute(work_dir) /
                              ("bulk_full-" + std::to_string(seed) + "-" +
                               std::to_string(::getpid()) + ".arsp"))
                                 .string();
    w.snapshot = std::make_shared<ScratchFile>(path);
    ARSP_RETURN_IF_ERROR(arsp::snapshot::WriteSnapshot(data, path));
    w.input_bytes =
        static_cast<int64_t>(std::filesystem::file_size(path, ec));
    w.load.name = "data";
    w.load.source = arsp::net::LoadSource::kCsvFile;
    w.load.payload = path;
    w.data_line = "synthetic IND m=" + std::to_string(config.num_objects) +
                  " cnt=" + std::to_string(config.max_instances) +
                  " d=3 l=0.2, .arsp snapshot loaded by path";
    QueryRequestWire request = Query("rank:2", WireDerivedKind::kNone);
    request.include_instances = true;
    request.use_cache = false;
    // Asked for explicitly: the auto policy parallelizes only from
    // kParallelMinInstances up, and then on every core, where a solve waits
    // for the slowest core of a shared host.
    constexpr int kWorkers = 2;
    request.parallelism = kWorkers;
    w.presets = {request};
    w.warmup = {request};
    w.connections = 1;
    w.request_line = "the same rank:2 full ARSP with include_instances, " +
                     std::to_string(kWorkers) +
                     " intra-query workers, cache off, 1 connection";
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

std::string RenderCsv(const arsp::UncertainDataset& dataset,
                      const std::vector<std::string>* names) {
  std::string out;
  out.reserve(static_cast<size_t>(dataset.num_instances()) *
              static_cast<size_t>(16 + 25 * (dataset.dim() + 1)));
  for (int j = 0; j < dataset.num_objects(); ++j) {
    const std::string name =
        names != nullptr ? (*names)[static_cast<size_t>(j)]
                         : "obj-" + std::to_string(j);
    const auto [begin, end] = dataset.object_range(j);
    for (int i = begin; i < end; ++i) {
      out += name;
      AppendDouble(&out, dataset.prob(i));
      const double* coords = dataset.coords(i);
      for (int k = 0; k < dataset.dim(); ++k) AppendDouble(&out, coords[k]);
      out += '\n';
    }
  }
  return out;
}

Answer AnswerOf(const QueryResponseWire& reply) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, size_t length) {
    h = arsp::snapshot::Fnv1a(data, length, h);
  };
  const uint64_t ranked = reply.ranked.size();
  mix(&ranked, sizeof(ranked));
  for (const arsp::net::RankedEntry& entry : reply.ranked) {
    mix(&entry.object_id, sizeof(entry.object_id));
    mix(&entry.prob, sizeof(entry.prob));
  }
  const uint64_t instances = reply.instance_probs.size();
  mix(&instances, sizeof(instances));
  if (instances > 0) {
    mix(reply.instance_probs.data(), instances * sizeof(double));
  }
  return Answer{h, reply.result_size};
}

bool Matches(const Answer& expected, const Answer& reply,
             const QueryRequestWire& request) {
  const bool derived = request.derived_kind != WireDerivedKind::kNone;
  return expected.digest == reply.digest &&
         (expected.result_size == reply.result_size ||
          (derived && reply.result_size == -1));
}

StatusOr<std::unique_ptr<Reference>> Reference::Create(
    const Workload& workload) {
  std::unique_ptr<Reference> ref(new Reference());
  if (workload.snapshot != nullptr) {
    auto loaded = arsp::snapshot::LoadSnapshot(workload.snapshot->path());
    if (!loaded.ok()) return loaded.status();
    ref->dataset_ = loaded->dataset;
  } else {
    auto parsed = arsp::ParseUncertainDatasetCsv(workload.load.payload,
                                                 workload.load.header);
    if (!parsed.ok()) return parsed.status();
    ref->dataset_ =
        std::make_shared<const arsp::UncertainDataset>(std::move(*parsed));
  }
  ref->handle_ = ref->engine_.AddDataset(ref->dataset_);
  ref->derived_from_cached_full_ = workload.derived_from_cached_full;
  return ref;
}

StatusOr<arsp::QueryRequest> Reference::ToEngineRequest(
    const QueryRequestWire& request) const {
  auto constraints =
      arsp::ParseConstraintSpec(request.constraint_spec, dataset_->dim());
  if (!constraints.ok()) return constraints.status();
  arsp::QueryRequest query;
  query.dataset = handle_;
  query.constraints = std::move(*constraints);
  query.solver = request.solver;
  for (const std::string& option : request.options) {
    ARSP_RETURN_IF_ERROR(query.options.ParseKeyValue(option));
  }
  query.derived.kind = ToDerivedKind(request.derived_kind);
  query.derived.k = request.k;
  query.derived.threshold = request.threshold;
  query.derived.max_objects = request.max_objects;
  query.use_cache = request.use_cache;
  query.allow_pushdown = request.allow_pushdown;
  query.parallelism = request.parallelism;
  return query;
}

StatusOr<Answer> Reference::Expected(const QueryRequestWire& request) {
  QueryRequestWire keyed = request;
  keyed.trace_id = 0;
  const std::string key = keyed.EncodePayload();
  const auto memo = expected_.find(key);
  if (memo != expected_.end()) return memo->second;

  auto query = ToEngineRequest(request);
  if (!query.ok()) return query.status();
  query->use_cache = false;
  query->pool_context = false;
  query->parallelism = 1;
  if (derived_from_cached_full_) query->allow_pushdown = false;
  auto response = engine_.Solve(*query);
  if (!response.ok()) return response.status();
  // The wire fields EngineBackend::Query derives from the same response.
  QueryResponseWire answer;
  const bool complete = response->result->is_complete();
  answer.result_size = complete ? arsp::CountNonZero(*response->result) : -1;
  for (const auto& [id, prob] : response->ranked) {
    answer.ranked.push_back(arsp::net::RankedEntry{id, std::string(), prob});
  }
  if (request.include_instances && complete) {
    answer.instance_probs = response->result->instance_probs;
  }
  const Answer expected = AnswerOf(answer);
  expected_.emplace(key, expected);
  return expected;
}

StatusOr<arsp::QueryResponse> Reference::SolveLikeServer(
    const QueryRequestWire& request) {
  auto query = ToEngineRequest(request);
  if (!query.ok()) return query.status();
  return engine_.Solve(*query);
}

}  // namespace perfbench
