// Copyright 2026 The ARSP Authors.

#include "src/core/skyline_probability.h"

#include "src/core/solver.h"
#include "src/prefs/preference_region.h"

namespace arsp {

ArspResult ComputeAllSkylineProbabilities(const UncertainDataset& dataset) {
  ExecutionContext context(dataset,
                           PreferenceRegion::FullSimplex(dataset.dim()));
  return SolverRegistry::Create("kdtt+").value()->Solve(context).value();
}

}  // namespace arsp
