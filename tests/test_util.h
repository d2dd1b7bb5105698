// Copyright 2026 The ARSP Authors.
//
// Shared helpers for the algorithm test suites: small random uncertain
// datasets, preference regions of both constraint families, an
// Example-1-style hand dataset whose coordinates are consistent with the
// dominance relations the paper states in Examples 1 and 3, a one-call
// run of a named registry solver, concurrent ArspEngine::Solve calls
// on one thread each, the served-query error count from the metrics
// registry, and crafted .arsp snapshot files.

#ifndef ARSP_TESTS_TEST_UTIL_H_
#define ARSP_TESTS_TEST_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/core/solver.h"
#include "src/io/snapshot.h"
#include "src/net/protocol.h"
#include "src/obs/metrics.h"
#include "src/prefs/constraint_generators.h"
#include "src/prefs/fdominance.h"
#include "src/prefs/preference_region.h"
#include "src/prefs/weight_ratio.h"
#include "src/uncertain/generators.h"
#include "src/uncertain/uncertain_dataset.h"

namespace arsp {
namespace testing_util {

/// A small random uncertain dataset with duplicate-prone coordinates when
/// `grid` is set (coordinates snapped to a coarse grid, so exact ties and
/// duplicate points actually occur).
inline UncertainDataset RandomDataset(int num_objects, int max_instances,
                                      int dim, double phi, uint64_t seed,
                                      bool grid = false) {
  Rng rng(seed);
  UncertainDatasetBuilder builder(dim);
  const int truncated = static_cast<int>(phi * num_objects + 0.5);
  for (int j = 0; j < num_objects; ++j) {
    const int count = rng.UniformInt(1, max_instances);
    std::vector<Point> points;
    std::vector<double> probs;
    const bool drop_mass = j < truncated;
    for (int i = 0; i < count; ++i) {
      Point p(dim);
      for (int k = 0; k < dim; ++k) {
        double v = rng.Uniform01();
        if (grid) v = std::round(v * 4.0) / 4.0;  // 5 distinct values
        p[k] = v;
      }
      points.push_back(std::move(p));
      probs.push_back((drop_mass ? 0.9 : 1.0) / count);
    }
    builder.AddObject(std::move(points), std::move(probs));
  }
  auto out = builder.Build();
  return std::move(out).value();
}

/// WR preference region for dimension d with c constraints.
inline PreferenceRegion WrRegion(int dim, int c) {
  auto region = PreferenceRegion::FromLinearConstraints(
      MakeWeakRankingConstraints(dim, c));
  return std::move(region).value();
}

/// IM preference region for dimension d with c constraints.
inline PreferenceRegion ImRegion(int dim, int c, uint64_t seed) {
  Rng rng(seed);
  auto region = PreferenceRegion::FromLinearConstraints(
      MakeInteractiveConstraints(dim, c, rng));
  return std::move(region).value();
}

/// Random weight-ratio constraints for dimension d.
inline WeightRatioConstraints RandomWr(int dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<double, double>> ranges;
  for (int i = 0; i < dim - 1; ++i) {
    const double lo = rng.Uniform(0.2, 1.2);
    ranges.emplace_back(lo, lo + rng.Uniform(0.0, 2.0));
  }
  return WeightRatioConstraints::Create(std::move(ranges)).value();
}

/// A 4-object / 10-instance dataset shaped like the paper's Fig. 1, with
/// coordinates consistent with Example 3 (t2,3 = (9,12), t3,1 = (6,5), and
/// t3,1, t3,2, t3,3 all F-dominate t2,3 under R = [0.5, 2]).
inline UncertainDataset Example1Dataset() {
  UncertainDatasetBuilder builder(2);
  builder.AddObject({Point{2.0, 10.0}, Point{14.0, 14.0}}, {0.5, 0.5});
  builder.AddObject({Point{3.0, 3.0}, Point{8.0, 11.0}, Point{9.0, 12.0}},
                    {1.0 / 3, 1.0 / 3, 1.0 / 3});
  builder.AddObject({Point{6.0, 5.0}, Point{7.0, 6.0}, Point{10.0, 9.0}},
                    {1.0 / 3, 1.0 / 3, 1.0 / 3});
  builder.AddObject({Point{12.0, 1.0}, Point{13.0, 4.0}}, {0.5, 0.5});
  auto out = builder.Build();
  return std::move(out).value();
}

/// The Example-1 preference region: F = {ω1 x1 + ω2 x2 | 0.5 ω2 ≤ ω1 ≤ 2 ω2}.
inline WeightRatioConstraints Example1Wr() {
  return WeightRatioConstraints::Create({{0.5, 2.0}}).value();
}

/// Runs the registry solver `name`, configured with `options`, on a fresh
/// context over `dataset` under `constraints` (a PreferenceRegion or
/// WeightRatioConstraints). Aborts with the solver name and Status when
/// creation or the solve fails.
template <typename Constraints>
ArspResult RunSolver(const std::string& name, const UncertainDataset& dataset,
                     const Constraints& constraints,
                     const SolverOptions& options = {}) {
  StatusOr<std::unique_ptr<ArspSolver>> solver =
      SolverRegistry::Create(name, options);
  ARSP_CHECK_MSG(solver.ok(), "%s: %s", name.c_str(),
                 solver.status().ToString().c_str());
  ExecutionContext context(dataset, constraints);
  StatusOr<ArspResult> result = (*solver)->Solve(context);
  ARSP_CHECK_MSG(result.ok(), "%s: %s", name.c_str(),
                 result.status().ToString().c_str());
  return std::move(result).value();
}

/// Calls engine.Solve for every request at once, one std::thread per
/// request, and waits for all of them; the i-th outcome answers
/// requests[i]. The threads hold no CoreBudget slots, so intra-query
/// arenas draw on the whole budget.
inline std::vector<StatusOr<QueryResponse>> SolveConcurrently(
    ArspEngine& engine, const std::vector<QueryRequest>& requests) {
  std::vector<StatusOr<QueryResponse>> outcomes(
      requests.size(), Status::Internal("request not executed"));
  std::vector<std::thread> threads;
  threads.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    threads.emplace_back([&engine, &requests, &outcomes, i] {
      outcomes[i] = engine.Solve(requests[i]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return outcomes;
}

/// The sum of every arsp_queries_total series labelled outcome="error" in
/// the process-global metrics registry (every server in a test binary
/// counts into it, so callers compare before and after).
inline uint64_t ErrorQueries() {
  std::istringstream text(
      obs::MetricsRegistry::Global().RenderPrometheusText());
  uint64_t total = 0;
  for (std::string line; std::getline(text, line);) {
    if (line.rfind("arsp_queries_total{", 0) == 0 &&
        line.find("outcome=\"error\"") != std::string::npos) {
      total += std::strtoull(line.substr(line.rfind(' ') + 1).c_str(),
                             nullptr, 10);
    }
  }
  return total;
}

/// A QUERY payload carrying `count` empty solver options, written by hand
/// as a hostile client could send it: 4 bytes on the wire per option, 32
/// once decoded into a std::string.
inline std::string QueryWithEmptyOptions(uint32_t count) {
  const net::QueryRequestWire request;  // no options
  std::string payload = request.EncodePayload();
  // The options count follows the dataset, constraint spec and solver
  // strings, each a 4-byte length and its bytes.
  const size_t at = 12 + request.dataset.size() +
                    request.constraint_spec.size() + request.solver.size();
  net::WireWriter options_count;
  options_count.U32(count);
  payload.replace(at, 4, options_count.Take());
  payload.insert(at + 4, size_t{count} * 4, '\0');
  return payload;
}

/// A snapshot file's bytes, patched in place to craft a malformed file.
/// Seal recomputes every section checksum and the header hash, so the
/// loader's checksums pass and only its structural checks stand between
/// the patched values and a solver.
class SnapshotImage {
 public:
  explicit SnapshotImage(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ARSP_CHECK_MSG(bytes_.size() >= sizeof(snapshot::SnapshotHeader),
                   "cannot read snapshot %s", path.c_str());
  }

  /// Element `index` of section `id`, read as a T.
  template <typename T>
  T Get(uint32_t id, size_t index) const {
    T value;
    std::memcpy(&value, bytes_.data() + ElementOffset(id, index, sizeof(T)),
                sizeof(T));
    return value;
  }

  /// Overwrites element `index` of section `id` with `value`.
  template <typename T>
  void Set(uint32_t id, size_t index, const T& value) {
    std::memcpy(&bytes_[ElementOffset(id, index, sizeof(T))], &value,
                sizeof(T));
  }

  /// Sets section `id`'s length in the table; its offset stays.
  void SetLength(uint32_t id, uint64_t length) {
    snapshot::SectionEntry entry = Entry(id);
    entry.length = length;
    std::memcpy(&bytes_[EntryOffset(id)], &entry, sizeof(entry));
  }

  void Seal() {
    snapshot::SnapshotHeader header;
    std::memcpy(&header, bytes_.data(), sizeof(header));
    const size_t table = sizeof(header);
    for (uint32_t i = 0; i < header.section_count; ++i) {
      snapshot::SectionEntry entry;
      char* at = &bytes_[table + i * sizeof(entry)];
      std::memcpy(&entry, at, sizeof(entry));
      entry.checksum = snapshot::Fnv1a(bytes_.data() + entry.offset,
                                       static_cast<size_t>(entry.length));
      std::memcpy(at, &entry, sizeof(entry));
    }
    header.content_hash = snapshot::Fnv1a(
        bytes_.data() + table,
        header.section_count * sizeof(snapshot::SectionEntry));
    std::memcpy(bytes_.data(), &header, sizeof(header));
  }

  void Write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
  }

 private:
  size_t EntryOffset(uint32_t id) const {
    snapshot::SnapshotHeader header;
    std::memcpy(&header, bytes_.data(), sizeof(header));
    for (uint32_t i = 0; i < header.section_count; ++i) {
      const size_t at = sizeof(header) + i * sizeof(snapshot::SectionEntry);
      snapshot::SectionEntry entry;
      std::memcpy(&entry, bytes_.data() + at, sizeof(entry));
      if (entry.id == id) return at;
    }
    ARSP_CHECK_MSG(false, "snapshot has no section %u", id);
    return 0;
  }
  snapshot::SectionEntry Entry(uint32_t id) const {
    snapshot::SectionEntry entry;
    std::memcpy(&entry, bytes_.data() + EntryOffset(id), sizeof(entry));
    return entry;
  }
  size_t ElementOffset(uint32_t id, size_t index, size_t size) const {
    const snapshot::SectionEntry entry = Entry(id);
    ARSP_CHECK((index + 1) * size <= entry.length);
    return static_cast<size_t>(entry.offset) + index * size;
  }

  std::string bytes_;
};

}  // namespace testing_util
}  // namespace arsp

#endif  // ARSP_TESTS_TEST_UTIL_H_
