// Copyright 2026 The ARSP Authors.
//
// The parallel determinism contract, swept across the registry: for every
// solver advertising kCapIntraQueryParallel, a parallel solve — any thread
// count, base context or derived prefix view — produces an
// instance-probability vector memcmp-identical to the serial solve, and
// deterministic task counts run to run. Goal solves (top-k and
// count-controlled, sliced post hoc, and threshold pushdown) must answer
// identically to the serial solve: the same objects in the same order with
// bit-identical probabilities (lanes read the pruner's decisions as they
// land, so they may skip different subtrees at different times, but a
// skipped subtree moves no value and the decided answer set is a fixpoint
// independent of scheduling).
//
// Also the TSan target for the executor: concurrent Solve calls of
// parallel queries sharing one pooled ExecutionContext, with the
// intra-query arenas drawing from one pinned core budget.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/task_arena.h"
#include "src/core/engine.h"
#include "src/core/queries.h"
#include "src/core/solver.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomDataset;
using testing_util::RandomWr;
using testing_util::WrRegion;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

class ScopedBudget {
 public:
  explicit ScopedBudget(int total) {
    internal::SetCoreBudgetTotalForTesting(total);
  }
  ~ScopedBudget() { internal::SetCoreBudgetTotalForTesting(0); }
};

std::unique_ptr<ArspSolver> MakeSolver(const std::string& name,
                                       int parallelism) {
  auto solver = SolverRegistry::Create(name);
  EXPECT_TRUE(solver.ok()) << name;
  if (!solver.ok()) return nullptr;
  if (parallelism > 0) {
    SolverOptions options;
    options.SetInt("parallelism", parallelism);
    const Status configured = (*solver)->Configure(options);
    EXPECT_TRUE(configured.ok()) << name << ": " << configured.ToString();
    if (!configured.ok()) return nullptr;
  }
  return std::move(*solver);
}

void ExpectBitIdentical(const ArspResult& serial, const ArspResult& parallel,
                        const std::string& label) {
  ASSERT_EQ(serial.instance_probs.size(), parallel.instance_probs.size())
      << label;
  EXPECT_EQ(std::memcmp(serial.instance_probs.data(),
                        parallel.instance_probs.data(),
                        serial.instance_probs.size() * sizeof(double)),
            0)
      << label << ": parallel probabilities diverged from serial";
}

void ExpectRankedEquivalent(
    const std::vector<std::pair<int, double>>& serial,
    const std::vector<std::pair<int, double>>& parallel,
    const std::string& label) {
  ASSERT_EQ(serial.size(), parallel.size()) << label;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].first, parallel[i].first) << label << " rank " << i;
    EXPECT_EQ(serial[i].second, parallel[i].second)
        << label << " rank " << i;
  }
}

// Full-goal sweep over one context: serial vs every thread count, bitwise;
// a repeated run checks the task-spawn count is deterministic (steal counts
// are scheduling noise and deliberately never compared).
void SweepFullSolve(const std::string& name, ExecutionContext& context) {
  SCOPED_TRACE(name);
  auto serial_solver = MakeSolver(name, 0);
  ASSERT_NE(serial_solver, nullptr);
  if (!serial_solver->ValidateContext(context).ok()) return;
  auto serial = serial_solver->Solve(context);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    ScopedBudget budget(threads);
    auto solver = MakeSolver(name, threads);
    ASSERT_NE(solver, nullptr);
    auto parallel = solver->Solve(context);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectBitIdentical(*serial, *parallel,
                       name + "/t" + std::to_string(threads));
    if (threads >= 2) {
      // The pinned budget grants exactly `threads` workers, so the worker
      // count and the frontier's task decomposition are deterministic.
      EXPECT_EQ(parallel->parallel_workers, threads);
      auto rerun = solver->Solve(context);
      ASSERT_TRUE(rerun.ok());
      EXPECT_EQ(parallel->tasks_spawned, rerun->tasks_spawned)
          << name << ": task decomposition drifted between runs";
      ExpectBitIdentical(*serial, *rerun, name + "/rerun");
    } else {
      EXPECT_EQ(parallel->tasks_stolen, 0);
    }
  }
}

// Goal sweep: parallel answers must match serial answers for every goal
// family (top-k and count-controlled are sliced post hoc; the threshold
// pushes down).
void SweepGoalSolves(const std::string& name,
                     std::shared_ptr<ExecutionContext> context) {
  SCOPED_TRACE(name);
  auto probe = MakeSolver(name, 0);
  ASSERT_NE(probe, nullptr);
  if (!probe->ValidateContext(*context).ok()) return;
  const DatasetView& view = context->view();
  const std::vector<QueryGoal> goals = {
      QueryGoal::TopK(3),
      QueryGoal::Threshold(0.25),
      QueryGoal::CountControlled(3),
  };
  for (const QueryGoal& goal : goals) {
    SCOPED_TRACE(goal.ToString());
    auto serial_solver = MakeSolver(name, 0);
    ASSERT_NE(serial_solver, nullptr);
    auto serial = serial_solver->Solve(*context, goal);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    double serial_threshold = 0.0;
    const auto serial_ranked =
        AnswerGoal(*serial, view, goal, &serial_threshold);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(threads);
      ScopedBudget budget(threads);
      auto solver = MakeSolver(name, threads);
      ASSERT_NE(solver, nullptr);
      auto parallel = solver->Solve(*context, goal);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      double parallel_threshold = 0.0;
      const auto parallel_ranked =
          AnswerGoal(*parallel, view, goal, &parallel_threshold);
      ExpectRankedEquivalent(serial_ranked, parallel_ranked,
                             name + "/" + goal.ToString() + "/t" +
                                 std::to_string(threads));
      EXPECT_EQ(serial_threshold, parallel_threshold);
    }
  }
}

// Every solver that advertises the capability — found by asking, not by a
// hardcoded list, so a new traversal solver is swept automatically.
std::vector<std::string> ParallelSolverNames() {
  std::vector<std::string> names;
  for (const std::string& name : SolverRegistry::Names()) {
    auto solver = SolverRegistry::Create(name);
    if (solver.ok() &&
        ((*solver)->capabilities() & kCapIntraQueryParallel) != 0) {
      names.push_back(name);
    }
  }
  return names;
}

TEST(ParallelDeterminism, RegistryAdvertisesTheExpectedSolvers) {
  const std::vector<std::string> names = ParallelSolverNames();
  for (const char* expected : {"kdtt", "kdtt+", "qdtt+", "mwtt"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " lost kCapIntraQueryParallel";
  }
}

TEST(ParallelDeterminism, FullSolveSweepOnBaseContexts) {
  for (uint64_t seed : {1200u, 1201u}) {
    SCOPED_TRACE(seed);
    const int dim = 2 + static_cast<int>(seed % 2);
    const UncertainDataset dataset =
        RandomDataset(60, 4, dim, 0.4, seed, seed % 2 == 0);
    ExecutionContext context(dataset, RandomWr(dim, seed));
    for (const std::string& name : ParallelSolverNames()) {
      SweepFullSolve(name, context);
    }
  }
}

TEST(ParallelDeterminism, FullSolveSweepOnDerivedViews) {
  const UncertainDataset dataset = RandomDataset(50, 4, 3, 0.4, 1300);
  auto base = std::make_shared<ExecutionContext>(dataset, WrRegion(3, 2));
  for (const int num_objects : {30, 45}) {
    SCOPED_TRACE(num_objects);
    auto view = DatasetView::Create(dataset, num_objects);
    ASSERT_TRUE(view.ok());
    auto derived = ExecutionContext::Derive(base, *view);
    for (const std::string& name : ParallelSolverNames()) {
      SweepFullSolve(name, *derived);
    }
  }
}

TEST(ParallelDeterminism, GoalPushdownSweep) {
  const UncertainDataset dataset = RandomDataset(48, 4, 3, 0.4, 1400);
  auto context = std::make_shared<ExecutionContext>(dataset, RandomWr(3, 1400));
  for (const std::string& name : ParallelSolverNames()) {
    SweepGoalSolves(name, context);
  }
}

TEST(ParallelDeterminism, GoalPushdownSweepOnDerivedViews) {
  const UncertainDataset dataset = RandomDataset(40, 3, 3, 0.4, 1500);
  auto base = std::make_shared<ExecutionContext>(dataset, WrRegion(3, 2));
  auto view = DatasetView::Create(dataset, 25);
  ASSERT_TRUE(view.ok());
  auto derived = ExecutionContext::Derive(base, *view);
  for (const std::string& name : ParallelSolverNames()) {
    SweepGoalSolves(name, derived);
  }
}

// Parallel pushdown must prune, not only agree with serial. The
// φ-truncated objects carry an existence mass of 0.9, below p = 0.91, so
// the pruner excludes them when it is built, before any task runs. Then in
// every schedule the 2-worker threshold solve spawns tasks, reports pruned
// objects, visits fewer nodes than the 2-worker full solve, and ranks
// exactly like the serial solve. Each repeated run gets its own schedule.
TEST(ParallelDeterminism, ParallelPushdownPrunes) {
  const UncertainDataset dataset = RandomDataset(200, 2, 3, 0.5, 1700);
  ExecutionContext context(dataset, WrRegion(3, 2));
  const QueryGoal goal = QueryGoal::Threshold(0.91);
  auto serial_solver = MakeSolver("kdtt+", 0);
  ASSERT_NE(serial_solver, nullptr);
  auto serial = serial_solver->Solve(context, goal);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const auto serial_ranked = AnswerGoal(*serial, context.view(), goal);
  ASSERT_FALSE(serial_ranked.empty());

  ScopedBudget budget(2);
  auto solver = MakeSolver("kdtt+", 2);
  ASSERT_NE(solver, nullptr);
  auto full = solver->Solve(context);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_GT(full->tasks_spawned, 0);
  for (int run = 0; run < 20; ++run) {
    SCOPED_TRACE(run);
    auto pushed = solver->Solve(context, goal);
    ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
    EXPECT_EQ(pushed->parallel_workers, 2);
    EXPECT_GT(pushed->tasks_spawned, 0);
    EXPECT_GT(pushed->objects_pruned, 0);
    EXPECT_LT(pushed->nodes_visited, full->nodes_visited);
    ExpectRankedEquivalent(serial_ranked,
                           AnswerGoal(*pushed, context.view(), goal),
                           "run " + std::to_string(run));
  }
}

// The TSan target: a batch of parallel queries racing over ONE pooled
// ExecutionContext, one caller thread each, with the per-query arenas
// sharing a pinned core budget (some queries get helpers, late ones
// degrade to serial — either way the results must be bitwise the serial
// reference).
TEST(ParallelDeterminism, ConcurrentSolvesOnOnePooledContext) {
  ScopedBudget budget(8);
  const int base_in_use = CoreBudget::InUse();
  const UncertainDataset dataset = RandomDataset(60, 4, 3, 0.4, 1600);

  ArspEngine engine;
  const DatasetHandle handle = engine.AddDataset(dataset);

  QueryRequest base_request;
  base_request.dataset = handle;
  base_request.constraints = ConstraintSpec::Region(WrRegion(3, 2));
  base_request.solver = "kdtt+";
  base_request.use_cache = false;  // every entry must really solve
  base_request.pool_context = true;

  QueryRequest serial_request = base_request;
  serial_request.parallelism = 1;
  auto reference = engine.Solve(serial_request);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::vector<QueryRequest> batch;
  for (int i = 0; i < 12; ++i) {
    QueryRequest request = base_request;
    request.parallelism = 2 + (i % 3);  // 2, 3, 4 workers requested
    batch.push_back(request);
  }
  // Derived requests ride along on the same pooled context: a top-k,
  // sliced from a parallel full solve, and a threshold, whose pushdown
  // runs in parallel.
  QueryRequest derived = base_request;
  derived.parallelism = 2;
  derived.derived.kind = DerivedKind::kTopKObjects;
  derived.derived.k = 5;
  batch.push_back(derived);
  derived.derived.kind = DerivedKind::kObjectsAboveThreshold;
  derived.derived.threshold = 0.25;
  batch.push_back(derived);

  const auto responses = testing_util::SolveConcurrently(engine, batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(responses[i].ok()) << responses[i].status().ToString();
    const QueryResponse& response = *responses[i];
    if (batch[i].derived.kind == DerivedKind::kNone) {
      ASSERT_TRUE(response.result->is_complete());
      ExpectBitIdentical(*reference->result, *response.result,
                         "batch entry " + std::to_string(i));
    } else {
      const QueryGoal goal =
          batch[i].derived.kind == DerivedKind::kTopKObjects
              ? QueryGoal::TopK(batch[i].derived.k)
              : QueryGoal::Threshold(batch[i].derived.threshold);
      EXPECT_EQ(response.pushdown, goal.PushesDown());
      const auto serial_ranked =
          AnswerGoal(*reference->result, engine.view(handle), goal);
      ExpectRankedEquivalent(serial_ranked, response.ranked, "derived entry");
    }
  }
  // Everything granted was returned: the budget leaks nothing across a
  // batch of arenas created and destroyed under contention.
  EXPECT_EQ(CoreBudget::InUse(), base_in_use);
}

}  // namespace
}  // namespace arsp
