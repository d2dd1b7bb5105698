// Copyright 2026 The ARSP Authors.
//
// The central property suite: every ARSP algorithm must produce the same
// probabilities. LOOP (validated against ENUM in enum_loop_test) acts as the
// reference; KDTT, KDTT+, QDTT+, B&B, and DUAL are compared against it over
// a parameterized sweep of dimensionality, distribution, constraint family,
// instance counts, ϕ, and tie-heavy grid data. The RegistrySweep tests then
// iterate SolverRegistry::Names() so any solver registered later is held to
// the same standard automatically: agree with ENUM, or reject the context
// with a clean FailedPrecondition.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/task_arena.h"
#include "src/core/queries.h"
#include "src/core/solver.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::ImRegion;
using testing_util::RandomDataset;
using testing_util::RandomWr;
using testing_util::RunSolver;
using testing_util::WrRegion;

struct SweepCase {
  int dim;
  int num_objects;
  int max_instances;
  double phi;
  bool grid;
  uint64_t seed;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "d=" << c.dim << " m=" << c.num_objects << " cnt=" << c.max_instances
      << " phi=" << c.phi << (c.grid ? " grid" : "") << " seed=" << c.seed;
}

class EquivalenceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EquivalenceSweep, AllAlgorithmsAgreeUnderWeakRanking) {
  const SweepCase& c = GetParam();
  const UncertainDataset dataset = RandomDataset(
      c.num_objects, c.max_instances, c.dim, c.phi, c.seed, c.grid);
  const PreferenceRegion region = WrRegion(c.dim, c.dim - 1);

  const ArspResult reference = RunSolver("loop", dataset, region);
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("kdtt", dataset, region)), 1e-8)
      << "KDTT";
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("kdtt+", dataset, region)), 1e-8)
      << "KDTT+";
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("qdtt+", dataset, region)), 1e-8)
      << "QDTT+";
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("bnb", dataset, region)), 1e-8)
      << "B&B";
}

TEST_P(EquivalenceSweep, AllAlgorithmsAgreeUnderWeightRatios) {
  const SweepCase& c = GetParam();
  const UncertainDataset dataset = RandomDataset(
      c.num_objects, c.max_instances, c.dim, c.phi, c.seed + 1000, c.grid);
  const WeightRatioConstraints wr = RandomWr(c.dim, c.seed);
  const PreferenceRegion region = PreferenceRegion::FromWeightRatios(wr);

  const ArspResult reference = RunSolver("loop", dataset, region);
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("kdtt+", dataset, region)), 1e-8)
      << "KDTT+";
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("qdtt+", dataset, region)), 1e-8)
      << "QDTT+";
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("bnb", dataset, region)), 1e-8)
      << "B&B";
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("dual", dataset, wr)), 1e-8)
      << "DUAL";
}

TEST_P(EquivalenceSweep, AllAlgorithmsAgreeUnderInteractiveConstraints) {
  const SweepCase& c = GetParam();
  const UncertainDataset dataset = RandomDataset(
      c.num_objects, c.max_instances, c.dim, c.phi, c.seed + 2000, c.grid);
  const PreferenceRegion region = ImRegion(c.dim, c.dim, c.seed);

  const ArspResult reference = RunSolver("loop", dataset, region);
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("kdtt+", dataset, region)), 1e-8)
      << "KDTT+";
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("qdtt+", dataset, region)), 1e-8)
      << "QDTT+";
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("bnb", dataset, region)), 1e-8)
      << "B&B";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EquivalenceSweep,
    ::testing::Values(
        SweepCase{2, 20, 3, 0.0, false, 1}, SweepCase{2, 20, 3, 0.0, true, 2},
        SweepCase{2, 40, 5, 0.5, false, 3}, SweepCase{3, 20, 3, 0.0, false, 4},
        SweepCase{3, 30, 4, 0.3, true, 5}, SweepCase{3, 50, 2, 1.0, false, 6},
        SweepCase{4, 20, 3, 0.0, false, 7}, SweepCase{4, 30, 4, 0.5, true, 8},
        SweepCase{5, 20, 3, 0.0, false, 9},
        SweepCase{5, 25, 3, 0.2, false, 10},
        SweepCase{6, 15, 3, 0.0, false, 11},
        SweepCase{2, 60, 6, 0.1, true, 12}));

TEST(EquivalenceEdgeCases, SingleInstancePerObjectPhiOne) {
  // The IIP regime: every object is one instance with Σp < 1; B&B's pruning
  // set stays empty (the paper notes B&B degenerates toward LOOP here).
  const UncertainDataset dataset = RandomDataset(40, 1, 2, 1.0, 21);
  const PreferenceRegion region = WrRegion(2, 1);
  const ArspResult reference = RunSolver("loop", dataset, region);
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("kdtt+", dataset, region)), 1e-9);
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("bnb", dataset, region)), 1e-9);
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("qdtt+", dataset, region)), 1e-9);
}

TEST(EquivalenceEdgeCases, ManyDuplicatesAcrossObjects) {
  // Every object concentrated on two shared points: maximal tie stress.
  UncertainDatasetBuilder builder(2);
  for (int j = 0; j < 10; ++j) {
    builder.AddObject({Point{0.5, 0.5}, Point{0.25, 0.75}}, {0.5, 0.5});
  }
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  const ArspResult reference = RunSolver("enum", *dataset, region);
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("loop", *dataset, region)), 1e-9);
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("kdtt+", *dataset, region)),
            1e-9);
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("qdtt+", *dataset, region)),
            1e-9);
  EXPECT_LT(MaxAbsDiff(reference, RunSolver("bnb", *dataset, region)), 1e-9);
}

TEST(EquivalenceEdgeCases, EnumCrossCheckOnTinyInputs) {
  // Direct ENUM comparison for the tree and B&B algorithms on inputs small
  // enough to enumerate.
  for (uint64_t seed = 50; seed < 58; ++seed) {
    const int dim = 2 + static_cast<int>(seed % 2);
    const UncertainDataset dataset = RandomDataset(6, 3, dim, 0.4, seed);
    const PreferenceRegion region = WrRegion(dim, dim - 1);
    const ArspResult reference = RunSolver("enum", dataset, region);
    EXPECT_LT(MaxAbsDiff(reference, RunSolver("kdtt+", dataset, region)),
              1e-9)
        << seed;
    EXPECT_LT(MaxAbsDiff(reference, RunSolver("qdtt+", dataset, region)),
              1e-9)
        << seed;
    EXPECT_LT(MaxAbsDiff(reference, RunSolver("bnb", dataset, region)), 1e-9)
        << seed;
  }
}

TEST(EquivalenceEdgeCases, ResultSizeConsistentAcrossAlgorithms) {
  const UncertainDataset dataset = RandomDataset(30, 4, 3, 0.2, 77);
  const PreferenceRegion region = WrRegion(3, 2);
  const int reference = CountNonZero(RunSolver("loop", dataset, region));
  EXPECT_EQ(reference, CountNonZero(RunSolver("kdtt+", dataset, region)));
  EXPECT_EQ(reference, CountNonZero(RunSolver("qdtt+", dataset, region)));
  EXPECT_EQ(reference, CountNonZero(RunSolver("bnb", dataset, region)));
}

// ---------------------------------------------------------------------------
// Registry sweep: every solver the registry knows about — including ones a
// future PR adds — must either agree with ENUM or refuse the context with a
// clean FailedPrecondition. One ExecutionContext is shared per case, so the
// sweep also exercises preprocessing reuse across solvers.

void SweepRegistryAgainstEnum(const UncertainDataset& dataset,
                              ExecutionContext& context) {
  ASSERT_LE(dataset.NumPossibleWorlds(), 2e7) << "dataset too big for ENUM";
  auto enum_solver = SolverRegistry::Create("enum");
  ASSERT_TRUE(enum_solver.ok());
  auto reference = (*enum_solver)->Solve(context);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (const std::string& name : SolverRegistry::Names()) {
    auto solver = SolverRegistry::Create(name);
    ASSERT_TRUE(solver.ok()) << name;
    const Status applicable = (*solver)->ValidateContext(context);
    SolverStats stats;
    auto result = (*solver)->Solve(context, QueryGoal::Full(), &stats);
    if (!applicable.ok()) {
      // Inapplicable solvers must fail cleanly, never compute garbage.
      EXPECT_FALSE(result.ok()) << name;
      EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
          << name << ": " << result.status().ToString();
      continue;
    }
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_LT(MaxAbsDiff(*reference, *result), 1e-8) << name;
    EXPECT_EQ(stats.solver, name);
  }
}

TEST(RegistrySweep, WeightRatioConstraints) {
  for (uint64_t seed = 300; seed < 305; ++seed) {
    SCOPED_TRACE(seed);
    const int dim = 2 + static_cast<int>(seed % 3);
    const UncertainDataset dataset = RandomDataset(7, 3, dim, 0.4, seed);
    ExecutionContext context(dataset, RandomWr(dim, seed));
    SweepRegistryAgainstEnum(dataset, context);
  }
}

TEST(RegistrySweep, WeightRatioSingleInstanceAllSolversApply) {
  // d = 2 with single-instance objects: the regime where even DUAL-2D-MS
  // participates, so every registered solver is compared against ENUM.
  for (uint64_t seed = 400; seed < 403; ++seed) {
    SCOPED_TRACE(seed);
    const UncertainDataset dataset = RandomDataset(10, 1, 2, 0.5, seed);
    ExecutionContext context(dataset, RandomWr(2, seed));
    auto dual2d = SolverRegistry::Create("dual-2d-ms");
    ASSERT_TRUE(dual2d.ok());
    EXPECT_TRUE((*dual2d)->ValidateContext(context).ok());
    SweepRegistryAgainstEnum(dataset, context);
  }
}

TEST(RegistrySweep, WeakRankingConstraints) {
  for (uint64_t seed = 500; seed < 505; ++seed) {
    SCOPED_TRACE(seed);
    const int dim = 2 + static_cast<int>(seed % 3);
    const UncertainDataset dataset =
        RandomDataset(7, 3, dim, 0.4, seed, seed % 2 == 0);
    ExecutionContext context(dataset, WrRegion(dim, dim - 1));
    SweepRegistryAgainstEnum(dataset, context);
  }
}

// ---------------------------------------------------------------------------
// Pinned bits. The other bit-identity sweeps compare two paths of one build
// (serial vs parallel, SIMD vs scalar, pushdown vs post-hoc), so a change
// that reorders the traversal's σ Adds — which changes β's rounding in
// every path alike — passes all of them. This case compares KDTT, KDTT+,
// QDTT+ and MWTT against recorded digests instead.

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

// Built from integer ratios only, so no libm call (whose last bits may
// differ between platforms) feeds the data. 256 coordinate values per
// dimension make ties common; every third object keeps 90% of its mass.
UncertainDataset IntegerDataset(int num_objects, int dim, uint32_t seed) {
  uint32_t state = seed;
  const auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return state >> 8;
  };
  UncertainDatasetBuilder builder(dim);
  for (int j = 0; j < num_objects; ++j) {
    const int count = 1 + static_cast<int>(next() % 4);
    std::vector<Point> points;
    std::vector<double> probs;
    for (int i = 0; i < count; ++i) {
      Point p(dim);
      for (int k = 0; k < dim; ++k) {
        p[k] = static_cast<double>(next() % 256) / 256.0;
      }
      points.push_back(std::move(p));
      probs.push_back((j % 3 == 0 ? 0.9 : 1.0) / count);
    }
    builder.AddObject(std::move(points), std::move(probs));
  }
  return std::move(builder.Build()).value();
}

// The weak ranking ω1 ≥ … ≥ ωd given by its vertices (1/k, …, 1/k, 0, …),
// so no vertex enumeration runs either.
PreferenceRegion WeakRankingByVertices(int dim) {
  std::vector<Point> vertices;
  for (int k = 1; k <= dim; ++k) {
    Point v(dim);
    for (int i = 0; i < k; ++i) v[i] = 1.0 / k;
    vertices.push_back(std::move(v));
  }
  return std::move(PreferenceRegion::FromVertices(std::move(vertices)))
      .value();
}

// The goal of a pinned solve: kFull digests instance_probs, the others
// digest the ranked answer.
enum PinnedGoal { kFull, kTop10, kAbove03 };
const char* const kGoalNames[] = {"kFull", "kTop10", "kAbove03"};

QueryGoal GoalOf(PinnedGoal goal) {
  const QueryGoal goals[] = {QueryGoal::Full(), QueryGoal::TopK(10),
                             QueryGoal::Threshold(0.3)};
  return goals[goal];
}

struct PinnedSolve {
  const char* solver;
  int dim;  // = score dimension: 3 is one partial SIMD chunk, 6 is 4 + 2
  int parallelism;
  PinnedGoal goal;  // the goal passed to Solve
  uint64_t digest;
  int64_t dominance_tests;
  int64_t nodes_visited;
  int64_t objects_pruned;
};

// The full and top-10 rows were recorded at the commit before branch-free
// candidate filtering, the kAbove03 rows at the commit before top-k
// pushdown was removed. A top-10 never pushes down, so every top-10 row
// carries its full row's counters. A threshold pushes down; its rows are
// serial only, because parallel pushdown prunes on decisions whose timing
// depends on the schedule, so its counters differ run to run
// (ParallelDeterminism holds its answers to the serial ones instead).
const PinnedSolve kPinned[] = {
    {"kdtt", 3, 1, kFull, 0xcdbc1709f5a8caa5ull, 46503, 243, 0},
    {"kdtt", 3, 1, kTop10, 0x967d572151a5a2cdull, 46503, 243, 0},
    {"kdtt", 3, 2, kFull, 0xcdbc1709f5a8caa5ull, 46503, 243, 0},
    {"kdtt", 3, 2, kTop10, 0x967d572151a5a2cdull, 46503, 243, 0},
    {"kdtt", 3, 1, kAbove03, 0x8c20e449642299e7ull, 46503, 243, 291},
    {"kdtt", 6, 1, kFull, 0x75f288c73d135869ull, 37767, 269, 0},
    {"kdtt", 6, 1, kTop10, 0x4715b03fe6b006edull, 37767, 269, 0},
    {"kdtt", 6, 2, kFull, 0x75f288c73d135869ull, 37767, 269, 0},
    {"kdtt", 6, 2, kTop10, 0x4715b03fe6b006edull, 37767, 269, 0},
    {"kdtt", 6, 1, kAbove03, 0x0ec6847d144cdd5cull, 37767, 269, 191},
    {"kdtt+", 3, 1, kFull, 0x22259811c4ed9e1cull, 46503, 243, 0},
    {"kdtt+", 3, 1, kTop10, 0x967d572151a5a2cdull, 46503, 243, 0},
    {"kdtt+", 3, 2, kFull, 0x22259811c4ed9e1cull, 46503, 243, 0},
    {"kdtt+", 3, 2, kTop10, 0x967d572151a5a2cdull, 46503, 243, 0},
    {"kdtt+", 3, 1, kAbove03, 0x8c20e449642299e7ull, 46503, 243, 291},
    {"kdtt+", 6, 1, kFull, 0x75f288c73d135869ull, 37767, 269, 0},
    {"kdtt+", 6, 1, kTop10, 0x4715b03fe6b006edull, 37767, 269, 0},
    {"kdtt+", 6, 2, kFull, 0x75f288c73d135869ull, 37767, 269, 0},
    {"kdtt+", 6, 2, kTop10, 0x4715b03fe6b006edull, 37767, 269, 0},
    {"kdtt+", 6, 1, kAbove03, 0x0ec6847d144cdd5cull, 37767, 269, 191},
    {"qdtt+", 3, 1, kFull, 0xa641ed75ecfc499bull, 78921, 251, 0},
    {"qdtt+", 3, 1, kTop10, 0x967d572151a5a2cdull, 78921, 251, 0},
    {"qdtt+", 3, 2, kFull, 0xa641ed75ecfc499bull, 78921, 251, 0},
    {"qdtt+", 3, 2, kTop10, 0x967d572151a5a2cdull, 78921, 251, 0},
    {"qdtt+", 3, 1, kAbove03, 0x8c20e449642299e7ull, 78639, 250, 291},
    {"qdtt+", 6, 1, kFull, 0xa98af550178ea2c5ull, 258433, 427, 0},
    {"qdtt+", 6, 1, kTop10, 0x4715b03fe6b006edull, 258433, 427, 0},
    {"qdtt+", 6, 2, kFull, 0xa98af550178ea2c5ull, 258433, 427, 0},
    {"qdtt+", 6, 2, kTop10, 0x4715b03fe6b006edull, 258433, 427, 0},
    {"qdtt+", 6, 1, kAbove03, 0x0ec6847d144cdd5cull, 256027, 425, 191},
    {"mwtt", 3, 1, kFull, 0x234be61445b47dc0ull, 51895, 211, 0},
    {"mwtt", 3, 1, kTop10, 0x727f912eae1e0c40ull, 51895, 211, 0},
    {"mwtt", 3, 2, kFull, 0x234be61445b47dc0ull, 51895, 211, 0},
    {"mwtt", 3, 2, kTop10, 0x727f912eae1e0c40ull, 51895, 211, 0},
    {"mwtt", 3, 1, kAbove03, 0x8c20e449642299e7ull, 51895, 211, 291},
    {"mwtt", 6, 1, kFull, 0xa98af550178ea2c5ull, 44868, 226, 0},
    {"mwtt", 6, 1, kTop10, 0x4715b03fe6b006edull, 44868, 226, 0},
    {"mwtt", 6, 2, kFull, 0xa98af550178ea2c5ull, 44868, 226, 0},
    {"mwtt", 6, 2, kTop10, 0x4715b03fe6b006edull, 44868, 226, 0},
    {"mwtt", 6, 1, kAbove03, 0x0ec6847d144cdd5cull, 44868, 226, 191},
};

TEST(PinnedBits, TraversalSolversMatchRecordedDigests) {
#if !defined(__GLIBCXX__)
  GTEST_SKIP() << "digests were recorded with libstdc++, whose nth_element "
                  "and sort order ties differently from other libraries";
#endif
  for (const PinnedSolve& pin : kPinned) {
    const QueryGoal goal = GoalOf(pin.goal);
    const std::string label = std::string(pin.solver) +
                              " d=" + std::to_string(pin.dim) +
                              " p=" + std::to_string(pin.parallelism) + " " +
                              goal.ToString();
    SCOPED_TRACE(label);
    const UncertainDataset dataset = IntegerDataset(1000, pin.dim, 16);
    ExecutionContext context(dataset, WeakRankingByVertices(pin.dim));
    auto solver = SolverRegistry::Create(pin.solver);
    ASSERT_TRUE(solver.ok());
    SolverOptions options;
    options.SetInt("parallelism", pin.parallelism);
    ASSERT_TRUE((*solver)->Configure(options).ok());
    internal::SetCoreBudgetTotalForTesting(pin.parallelism);
    auto result = (*solver)->Solve(context, goal);
    internal::SetCoreBudgetTotalForTesting(0);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (pin.parallelism > 1) {
      EXPECT_EQ(result->parallel_workers, pin.parallelism);
    }

    uint64_t digest = kFnvBasis;
    if (goal.is_full()) {
      digest = Fnv1a(result->instance_probs.data(),
                     result->instance_probs.size() * sizeof(double), digest);
    } else {
      for (const auto& [object, prob] :
           AnswerGoal(*result, context.view(), goal)) {
        digest = Fnv1a(&object, sizeof(object), digest);
        digest = Fnv1a(&prob, sizeof(prob), digest);
      }
    }
    EXPECT_EQ(digest, pin.digest);
    EXPECT_EQ(result->dominance_tests, pin.dominance_tests);
    EXPECT_EQ(result->nodes_visited, pin.nodes_visited);
    EXPECT_EQ(result->objects_pruned, pin.objects_pruned);
    if (digest != pin.digest ||
        result->dominance_tests != pin.dominance_tests ||
        result->nodes_visited != pin.nodes_visited ||
        result->objects_pruned != pin.objects_pruned) {
      std::printf("    {\"%s\", %d, %d, %s, 0x%016" PRIx64 "ull, %" PRId64
                  ", %" PRId64 ", %" PRId64 "},\n",
                  pin.solver, pin.dim, pin.parallelism, kGoalNames[pin.goal],
                  digest, result->dominance_tests, result->nodes_visited,
                  result->objects_pruned);
    }
  }
}

}  // namespace
}  // namespace arsp
