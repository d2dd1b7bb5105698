// Copyright 2026 The ARSP Authors.

#include "src/core/dual2d_ms.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/core/solver.h"

namespace arsp {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;
constexpr double kThreeHalfPi = 4.712388980384689857693965074919;
constexpr double kAngleEps = 1e-12;

// Angle of s around t in [0, 2π); coincident points sit at 3π/2, which lies
// inside the dominator range of every ratio range (mutual F-dominance of
// duplicates).
double AngleAround(const double* t, const double* s) {
  const double dx = s[0] - t[0];
  const double dy = s[1] - t[1];
  if (dx == 0.0 && dy == 0.0) return kThreeHalfPi;
  double theta = std::atan2(dy, dx);
  if (theta < 0.0) theta += kTwoPi;
  return theta;
}

}  // namespace

size_t Dual2dMs::EstimateMemoryBytes(int num_instances) {
  // Per (t, s) pair: angle + prefix product (double each) + prefix zero
  // count (int). Prefix arrays have one extra slot per instance — ignored.
  return static_cast<size_t>(num_instances) *
         static_cast<size_t>(num_instances) * (8 + 8 + 4);
}

StatusOr<Dual2dMs> Dual2dMs::Build(const UncertainDataset& dataset,
                                   size_t max_memory_bytes) {
  return Build(DatasetView(dataset), max_memory_bytes);
}

StatusOr<Dual2dMs> Dual2dMs::Build(const DatasetView& view,
                                   size_t max_memory_bytes) {
  if (view.dim() != 2) {
    return Status::InvalidArgument("Dual2dMs requires a 2-dimensional dataset");
  }
  if (!view.single_instance_objects()) {
    return Status::Unimplemented(
        "Dual2dMs supports single-instance objects only (the paper's IIP "
        "setting); multi-instance objects break prefix-product composition");
  }
  if (EstimateMemoryBytes(view.num_instances()) > max_memory_bytes) {
    return Status::FailedPrecondition(
        "Dual2dMs quadratic index would exceed the memory budget; "
        "subsample the dataset (the paper hits the same wall, Fig. 7b)");
  }

  const int n = view.num_instances();
  std::vector<PerInstance> table(static_cast<size_t>(n));

  std::vector<std::pair<double, double>> angled;  // (angle, prob)
  for (int ti = 0; ti < n; ++ti) {
    const double* t_row = view.coords(ti);
    angled.clear();
    angled.reserve(static_cast<size_t>(n - 1));
    for (int si = 0; si < n; ++si) {
      if (si == ti) continue;  // single-instance objects: skip own object
      angled.emplace_back(AngleAround(t_row, view.coords(si)), view.prob(si));
    }
    std::sort(angled.begin(), angled.end());

    PerInstance& row = table[static_cast<size_t>(ti)];
    row.prob = view.prob(ti);
    row.angles.reserve(angled.size());
    row.prefix_logs.reserve(angled.size() + 1);
    row.prefix_zeros.reserve(angled.size() + 1);
    row.prefix_logs.push_back(0.0);
    row.prefix_zeros.push_back(0);
    for (const auto& [angle, prob] : angled) {
      row.angles.push_back(angle);
      const double factor = 1.0 - prob;
      if (factor <= kProbabilityEps) {
        row.prefix_logs.push_back(row.prefix_logs.back());
        row.prefix_zeros.push_back(row.prefix_zeros.back() + 1);
      } else {
        row.prefix_logs.push_back(row.prefix_logs.back() + std::log(factor));
        row.prefix_zeros.push_back(row.prefix_zeros.back());
      }
    }
  }
  return Dual2dMs(std::move(table));
}

ArspResult Dual2dMs::Query(double ratio_lo, double ratio_hi) const {
  ARSP_CHECK_MSG(ratio_lo > 0.0 && ratio_lo <= ratio_hi,
                 "ratio range must satisfy 0 < l <= h");
  const double theta_lo = M_PI - std::atan(ratio_lo) - kAngleEps;
  const double theta_hi = kTwoPi - std::atan(ratio_hi) + kAngleEps;

  ArspResult result;
  result.instance_probs.assign(table_.size(), 0.0);
  for (size_t ti = 0; ti < table_.size(); ++ti) {
    const PerInstance& row = table_[ti];
    const auto begin_it =
        std::lower_bound(row.angles.begin(), row.angles.end(), theta_lo);
    const auto end_it =
        std::upper_bound(row.angles.begin(), row.angles.end(), theta_hi);
    const size_t a = static_cast<size_t>(begin_it - row.angles.begin());
    const size_t b = static_cast<size_t>(end_it - row.angles.begin());
    if (row.prefix_zeros[b] - row.prefix_zeros[a] > 0) {
      result.instance_probs[ti] = 0.0;  // a certain dominator in range
    } else {
      result.instance_probs[ti] =
          row.prob * std::exp(row.prefix_logs[b] - row.prefix_logs[a]);
    }
  }
  return result;
}

size_t Dual2dMs::MemoryBytes() const {
  size_t total = 0;
  for (const PerInstance& row : table_) {
    total += row.angles.size() * sizeof(double) +
             row.prefix_logs.size() * sizeof(double) +
             row.prefix_zeros.size() * sizeof(int);
  }
  return total;
}

namespace {

// Registry façade: builds the angular index, then answers the single ratio
// range of the context's constraints. One-shot solves pay the quadratic
// preprocessing every time — the structure shines when one build serves
// many ratio ranges, which the Dual2dMs class exposes directly.
class Dual2dMsSolver : public ArspSolver {
 public:
  const char* name() const override { return "dual-2d-ms"; }
  const char* display_name() const override { return "DUAL-2D-MS"; }
  const char* description() const override {
    return "2-d angular-sweep index for weight ratio ranges (quadratic "
           "memory, log-time queries); option max_memory_bytes=N";
  }
  uint32_t capabilities() const override {
    return kCapRequiresWeightRatios | kCapRequires2d |
           kCapRequiresSingleInstanceObjects | kCapQuadraticTime;
  }

  Status Configure(const SolverOptions& options) override {
    ARSP_RETURN_IF_ERROR(options.ExpectOnly({"max_memory_bytes"}));
    StatusOr<int64_t> budget = options.IntOr(
        "max_memory_bytes", static_cast<int64_t>(max_memory_bytes_));
    if (!budget.ok()) return budget.status();
    if (*budget <= 0) {
      return Status::InvalidArgument(
          "dual-2d-ms max_memory_bytes must be positive");
    }
    max_memory_bytes_ = static_cast<size_t>(*budget);
    return Status::OK();
  }

 protected:
  StatusOr<ArspResult> SolveImpl(ExecutionContext& context,
                                 const QueryGoal& /*goal*/) override {
    StatusOr<Dual2dMs> index =
        Dual2dMs::Build(context.view(), max_memory_bytes_);
    if (!index.ok()) return index.status();
    const WeightRatioConstraints& wr = context.weight_ratios();
    return index->Query(wr.lo(0), wr.hi(0));
  }

 private:
  size_t max_memory_bytes_ = size_t{6} << 30;
};

}  // namespace

namespace internal {
std::unique_ptr<ArspSolver> NewDual2dMsSolver() {
  return std::make_unique<Dual2dMsSolver>();
}
}  // namespace internal

}  // namespace arsp
