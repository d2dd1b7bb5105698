// Copyright 2026 The ARSP Authors.
//
// Workload generators. The synthetic generator follows the procedure of the
// paper's §V-A verbatim (IND/ANTI/CORR centers, per-object hyper-rectangles,
// cnt/l/ϕ knobs). The "real" datasets the paper evaluates (IIP iceberg
// sightings, CAR listings, NBA game logs) are not redistributable, so we
// ship statistical simulators that reproduce the structural properties the
// paper's analysis relies on — see ARCHITECTURE.md, "Deviations from the
// paper".

#ifndef ARSP_UNCERTAIN_GENERATORS_H_
#define ARSP_UNCERTAIN_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/uncertain/uncertain_dataset.h"

namespace arsp {

/// Attribute correlation of synthetic object centers [40].
enum class Distribution { kIndependent, kAntiCorrelated, kCorrelated };

/// Short name ("IND" / "ANTI" / "CORR") for logs and benchmark labels.
const char* DistributionName(Distribution dist);

/// Knobs of the §V-A synthetic generator; defaults are the paper's defaults
/// scaled down (see ARCHITECTURE.md, "Deviations from the paper") — pass
/// explicit values in benchmarks.
struct SyntheticConfig {
  int num_objects = 512;     ///< m
  int max_instances = 20;    ///< cnt; n_i ~ Uniform[1, cnt]
  int dim = 4;               ///< d
  double region_length = 0.2;  ///< l; rectangle edge ~ N(l/2, l/8) in [0, l]
  double phi = 0.0;          ///< fraction of objects with Σ p(t) < 1
  Distribution distribution = Distribution::kIndependent;
  uint64_t seed = 42;
};

/// Generates an uncertain dataset per the paper's procedure: centers in
/// [0,1]^d by distribution, instances uniform in a hyper-rectangle around
/// the center with probability 1/n_i, then one instance removed from the
/// first ϕ·m objects (those objects are generated with n_i ≥ 2).
UncertainDataset GenerateSynthetic(const SyntheticConfig& config);

/// IIP-like iceberg sightings: `num_records` single-instance 2-d objects
/// (melting percentage, drifting days; lower preferred on both after
/// orientation), each with confidence-derived probability in
/// {0.8, 0.7, 0.6}. Every object satisfies Σp < 1 (ϕ = 1), the property
/// Fig. 6(a) and Fig. 7 depend on.
UncertainDataset GenerateIipLike(int num_records, uint64_t seed);

/// CAR-like listings: objects are car models; each model has Uniform[1,30]
/// cars with equal probability 1/|T|; 4 attributes (price, -power, mileage,
/// -year as lower-is-better) with large within-model variance.
UncertainDataset GenerateCarLike(int num_models, uint64_t seed);

/// NBA-like game logs: objects are players, instances per-game stat lines
/// with probability 1/|T|. `dim` selects the first `dim` of the 8 metrics
/// (rebounds, assists, points, steals, blocks, turnovers, minutes, field
/// goals made), all oriented lower-is-better (counting stats negated).
/// Players have latent per-metric skill plus per-game variance so that the
/// Table-I phenomena (stars, high-variance outsiders) occur.
UncertainDataset GenerateNbaLike(int num_players, int dim, uint64_t seed,
                                 std::vector<std::string>* names = nullptr);

/// Names of the NBA-like metrics in generation order.
std::vector<std::string> NbaMetricNames(int dim);

/// Aggregates an uncertain dataset into a certain one by the per-object
/// probability-weighted mean of instances (the paper's "aggregated"
/// comparison baseline). Row j of the result corresponds to object j.
std::vector<Point> AggregateByMean(const UncertainDataset& dataset);

/// Restricts the dataset to its first `count` objects (the paper's
/// "vary m%" sweeps on real datasets).
UncertainDataset TakeObjects(const UncertainDataset& dataset, int count);

/// Builds a dataset from a textual generator spec — the form the arspd
/// LOAD_DATASET message and scripted workloads use to name synthetic data
/// without shipping CSVs:
///   "synthetic:m=512,cnt=20,d=4,l=0.2,phi=0,dist=IND|ANTI|CORR,seed=42"
///   "iip:n=500,seed=1"
///   "car:m=40,seed=1"
///   "nba:m=50,d=4,seed=1"
/// Every key is optional (defaults above / SyntheticConfig defaults);
/// unknown keys, malformed numbers, and out-of-range values are
/// InvalidArgument. `names` (if non-null) receives object names when the
/// generator produces them (NBA), else "obj-<j>" placeholders.
StatusOr<UncertainDataset> GenerateFromSpec(
    const std::string& spec, std::vector<std::string>* names = nullptr);

}  // namespace arsp

#endif  // ARSP_UNCERTAIN_GENERATORS_H_
