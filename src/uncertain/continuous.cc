// Copyright 2026 The ARSP Authors.

#include "src/uncertain/continuous.h"

#include <cmath>
#include <memory>

#include "src/core/solver.h"

namespace arsp {

int ContinuousUncertainDataset::AddUniformBox(Point center, Point half_extent,
                                              double existence_prob) {
  ARSP_CHECK(center.dim() == dim_ && half_extent.dim() == dim_);
  ARSP_CHECK(existence_prob > 0.0 && existence_prob <= 1.0);
  for (int k = 0; k < dim_; ++k) ARSP_CHECK(half_extent[k] >= 0.0);
  objects_.push_back(ContinuousObject{ContinuousKind::kUniformBox,
                                      std::move(center),
                                      std::move(half_extent),
                                      existence_prob});
  return static_cast<int>(objects_.size()) - 1;
}

int ContinuousUncertainDataset::AddGaussian(Point mean, Point stddev,
                                            double existence_prob) {
  ARSP_CHECK(mean.dim() == dim_ && stddev.dim() == dim_);
  ARSP_CHECK(existence_prob > 0.0 && existence_prob <= 1.0);
  for (int k = 0; k < dim_; ++k) ARSP_CHECK(stddev[k] >= 0.0);
  objects_.push_back(ContinuousObject{ContinuousKind::kGaussian,
                                      std::move(mean), std::move(stddev),
                                      existence_prob});
  return static_cast<int>(objects_.size()) - 1;
}

Point ContinuousUncertainDataset::Sample(int j, Rng& rng) const {
  const ContinuousObject& obj = objects_[static_cast<size_t>(j)];
  Point p(dim_);
  for (int k = 0; k < dim_; ++k) {
    switch (obj.kind) {
      case ContinuousKind::kUniformBox:
        p[k] = obj.spread[k] == 0.0
                   ? obj.center[k]
                   : rng.Uniform(obj.center[k] - obj.spread[k],
                                 obj.center[k] + obj.spread[k]);
        break;
      case ContinuousKind::kGaussian:
        p[k] = obj.spread[k] == 0.0 ? obj.center[k]
                                    : rng.Normal(obj.center[k], obj.spread[k]);
        break;
    }
  }
  return p;
}

UncertainDataset ContinuousUncertainDataset::Discretize(
    int samples_per_object, Rng& rng) const {
  ARSP_CHECK(samples_per_object >= 1);
  UncertainDatasetBuilder builder(dim_);
  for (int j = 0; j < num_objects(); ++j) {
    const double prob =
        objects_[static_cast<size_t>(j)].existence_prob / samples_per_object;
    std::vector<Point> points;
    std::vector<double> probs;
    points.reserve(static_cast<size_t>(samples_per_object));
    for (int i = 0; i < samples_per_object; ++i) {
      points.push_back(Sample(j, rng));
      probs.push_back(prob);
    }
    builder.AddObject(std::move(points), std::move(probs));
  }
  auto dataset = builder.Build();
  ARSP_CHECK(dataset.ok());
  return std::move(dataset).value();
}

std::vector<double> EstimateContinuousRskyline(
    const ContinuousUncertainDataset& dataset, const PreferenceRegion& region,
    int samples_per_object, int num_trials, uint64_t seed,
    double* max_stderr_out) {
  ARSP_CHECK(num_trials >= 1);
  const int m = dataset.num_objects();
  std::vector<double> sum(static_cast<size_t>(m), 0.0);
  std::vector<double> sum_sq(static_cast<size_t>(m), 0.0);

  const std::unique_ptr<ArspSolver> solver =
      SolverRegistry::Create("kdtt+").value();
  for (int trial = 0; trial < num_trials; ++trial) {
    Rng rng(seed + static_cast<uint64_t>(trial) * 0x9e3779b97f4a7c15ull);
    const UncertainDataset discrete =
        dataset.Discretize(samples_per_object, rng);
    ExecutionContext context(discrete, region);
    const ArspResult result = solver->Solve(context).value();
    const std::vector<double> per_object =
        ObjectProbabilities(result, discrete);
    for (int j = 0; j < m; ++j) {
      sum[static_cast<size_t>(j)] += per_object[static_cast<size_t>(j)];
      sum_sq[static_cast<size_t>(j)] +=
          per_object[static_cast<size_t>(j)] * per_object[static_cast<size_t>(j)];
    }
  }

  std::vector<double> mean(static_cast<size_t>(m), 0.0);
  double worst_stderr = 0.0;
  for (int j = 0; j < m; ++j) {
    mean[static_cast<size_t>(j)] = sum[static_cast<size_t>(j)] / num_trials;
    if (num_trials > 1) {
      const double var =
          (sum_sq[static_cast<size_t>(j)] -
           num_trials * mean[static_cast<size_t>(j)] *
               mean[static_cast<size_t>(j)]) /
          (num_trials - 1);
      worst_stderr = std::max(
          worst_stderr, std::sqrt(std::max(0.0, var) / num_trials));
    }
  }
  if (max_stderr_out != nullptr) *max_stderr_out = worst_stderr;
  return mean;
}

}  // namespace arsp
