// Copyright 2026 The ARSP Authors.
//
// arsp_pack — build a columnar .arsp snapshot from a CSV dataset or a
// generator spec. The snapshot holds the dataset's columns, its bounds,
// both spatial indexes as flat arenas, optional pre-mapped scores, and
// object names, so arsp_cli / arspd can mmap it and serve queries with no
// parsing and no index build (see src/io/snapshot.h).
//
// Usage:
//   arsp_pack --input data.csv [--header] --output data.arsp
//   arsp_pack --generate "iip:n=1000000,m=10000,d=3" --output big.arsp
//            [--leaf-size N]     (kd-tree leaf capacity, default 16)
//            [--fanout N]        (R-tree max entries, 4..1024, default 16)
//            [--scores SPEC]     (pre-map scores for one constraint spec,
//                                 "wr:l1,h1[,...]" or "rank:c"; queries
//                                 whose region matches mmap their scores)
//
// Packing is the expensive half of the out-of-core split: it pays the CSV
// parse / generation plus both index builds once, so every later load is a
// validation pass over the section table.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/index/rtree.h"
#include "src/io/csv.h"
#include "src/io/snapshot.h"
#include "src/uncertain/generators.h"
#include "tools/cli_args.h"

namespace {

using namespace arsp;

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: arsp_pack --input data.csv [--header] --output out.arsp\n"
      "       arsp_pack --generate \"iip:n=...,m=...,d=...\" --output "
      "out.arsp\n"
      "                 [--leaf-size N] [--fanout N] [--scores SPEC]\n");
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string generate;
  std::string output;
  std::string scores_spec;
  bool header = false;
  snapshot::SnapshotWriteOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--input") {
      input = value();
    } else if (arg == "--generate") {
      generate = value();
    } else if (arg == "--output") {
      output = value();
    } else if (arg == "--scores") {
      scores_spec = value();
    } else if (arg == "--leaf-size") {
      const char* v = value();
      if (!cli::internal::ParseIntStrict(v, &options.kd_leaf_size) ||
          options.kd_leaf_size < 1) {
        std::fprintf(stderr,
                     "--leaf-size must be an integer >= 1 (got '%s')\n", v);
        PrintUsage();
        return 2;
      }
    } else if (arg == "--fanout") {
      const char* v = value();
      if (!cli::internal::ParseIntStrict(v, &options.rtree_fanout) ||
          options.rtree_fanout < RTree::kMinFanout ||
          options.rtree_fanout > RTree::kMaxFanout) {
        std::fprintf(stderr,
                     "--fanout must be an integer in [%d, %d] (got '%s')\n",
                     RTree::kMinFanout, RTree::kMaxFanout, v);
        PrintUsage();
        return 2;
      }
    } else if (arg == "--header") {
      header = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }
  if (output.empty() || (input.empty() == generate.empty())) {
    PrintUsage();
    return 2;
  }

  // Acquire the dataset: parse the CSV or run the generator.
  const auto load_start = std::chrono::steady_clock::now();
  std::vector<std::string> names;
  StatusOr<UncertainDataset> dataset = Status::Internal("unset");
  if (!input.empty()) {
    std::ifstream file(input);
    if (!file) {
      std::fprintf(stderr, "error loading %s: cannot open\n", input.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    dataset = ParseUncertainDatasetCsv(buffer.str(), header, &names);
  } else {
    dataset = GenerateFromSpec(generate, &names);
  }
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const double load_ms = MillisSince(load_start);
  std::printf("dataset: %d objects / %d instances, d = %d (%.1f ms)\n",
              dataset->num_objects(), dataset->num_instances(),
              dataset->dim(), load_ms);

  // Optional pre-mapped scores for one preference region.
  std::unique_ptr<PreferenceRegion> region;
  if (!scores_spec.empty()) {
    auto spec = ParseConstraintSpec(scores_spec, dataset->dim());
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 2;
    }
    region = std::make_unique<PreferenceRegion>(
        spec->has_weight_ratios()
            ? PreferenceRegion::FromWeightRatios(spec->weight_ratios())
            : spec->region());
    options.scores_region = region.get();
  }
  options.object_names = std::move(names);

  const auto pack_start = std::chrono::steady_clock::now();
  const Status written = snapshot::WriteSnapshot(*dataset, output, options);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  const double pack_ms = MillisSince(pack_start);

  std::ifstream packed(output, std::ios::binary | std::ios::ate);
  const long long bytes = packed ? static_cast<long long>(packed.tellg()) : 0;
  const std::string scores_note =
      scores_spec.empty() ? "" : ", scores " + scores_spec;
  std::printf(
      "packed %s: %lld bytes (kd leaf %d, rt fanout %d%s) in %.1f ms\n",
      output.c_str(), bytes, options.kd_leaf_size, options.rtree_fanout,
      scores_note.c_str(), pack_ms);
  return 0;
}
