// Copyright 2026 The ARSP Authors.
//
// The SIMD kernel layer's contract suite (src/simd/):
//
//   * per-kernel sweeps comparing every non-scalar table against the scalar
//     reference, bit for bit, across odd sizes (n = 0, 1, vector width ± 1,
//     gather permutations, unaligned tails) and adversarial values
//     (±0.0 ties, exact duplicates);
//   * dispatch behavior: SupportedArches is consistent with the tables,
//     overrides to unsupported arches are rejected;
//   * a registry-wide equivalence pass: every registered solver must
//     produce bit-identical ArspResults under every supported dispatch
//     arch — the end-to-end form of the bit-identity contract.
//
// CI additionally runs this binary under ASan/UBSan with ARSP_KERNEL=scalar
// and with the native arch, which covers the environment-variable override
// path the in-process sweeps cannot reach (dispatch resolves once).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/aligned.h"
#include "src/common/rng.h"
#include "src/core/solver.h"
#include "src/simd/kernels.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using simd::KernelArch;
using simd::KernelOps;
using testing_util::RandomDataset;
using testing_util::WrRegion;

// Sizes straddling the vector width in play: 0, 1, 2, the 4-lane AVX2
// width and its multiples ± 1, and larger blocks with ragged tails.
const int kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64};
// Every remainder mod 4 after zero, one, two and three full 4-wide chunks
// (the AVX2 corner kernels finish each row with one masked chunk of the
// last 1 to 4 coordinates).
const int kDims[] = {1, 2, 3, 4, 5, 6, 7, 8, 12, 16};

std::vector<const KernelOps*> NonScalarTables() {
  std::vector<const KernelOps*> tables;
  if (const KernelOps* avx2 = simd::internal::Avx2OpsOrNull()) {
    tables.push_back(avx2);
  }
  return tables;
}

// Random doubles with deliberate degeneracies: exact duplicates (grid
// snapping) and signed zeros, the values where min/max tie-breaking and
// comparison semantics can diverge between implementations.
AlignedVector<double> AdversarialStream(int count, uint64_t seed) {
  Rng rng(seed);
  AlignedVector<double> out(static_cast<size_t>(count));
  for (double& v : out) {
    const int kind = rng.UniformInt(0, 9);
    if (kind == 0) {
      v = 0.0;
    } else if (kind == 1) {
      v = -0.0;
    } else if (kind <= 4) {
      v = std::round(rng.Uniform(-2.0, 2.0) * 4.0) / 4.0;  // coarse grid
    } else {
      v = rng.Uniform(-1.0, 1.0);
    }
  }
  return out;
}

std::vector<int> Permutation(int n, uint64_t seed) {
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  Rng rng(seed);
  std::shuffle(ids.begin(), ids.end(), rng.engine());
  return ids;
}

// Bitwise equality — the contract is bit-identity, not ==, so -0.0 vs +0.0
// mismatches (which == would pass) fail here.
::testing::AssertionResult BitEqual(const double* a, const double* b, int n) {
  for (int i = 0; i < n; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(KernelSweep, ClassifyCorners) {
  for (const KernelOps* table : NonScalarTables()) {
    for (const int dim : kDims) {
      for (const int n : kSizes) {
        SCOPED_TRACE(std::string(simd::KernelArchName(table->arch)) +
                     " dim=" + std::to_string(dim) + " n=" +
                     std::to_string(n));
        const AlignedVector<double> coords =
            AdversarialStream(n * dim, 1000 + static_cast<uint64_t>(n));
        const AlignedVector<double> corners =
            AdversarialStream(2 * dim, 2000 + static_cast<uint64_t>(dim));
        const std::vector<int> ids =
            Permutation(n, static_cast<uint64_t>(n) * 7 + 1);
        std::vector<unsigned char> expected(static_cast<size_t>(n) + 1, 0xee);
        std::vector<unsigned char> actual(static_cast<size_t>(n) + 1, 0xee);
        simd::internal::ScalarOps().ClassifyCorners(
            coords.data(), dim, ids.data(), n, corners.data(),
            corners.data() + dim, expected.data());
        table->ClassifyCorners(coords.data(), dim, ids.data(), n,
                               corners.data(), corners.data() + dim,
                               actual.data());
        EXPECT_EQ(expected, actual);
      }
    }
  }
}

// Rows and corners drawn only from ±inf, ±0.0 and two finite values, plus
// rows that copy a corner exactly: every comparison is a tie, a signed-zero
// tie or an infinity, where the masked tail's zero lanes must not change
// what the scalar loop decides. The rows, pmin and pmax are three exactly sized
// heap blocks, so under ASan a read past the last row or either corner
// reports.
TEST(KernelSweep, ClassifyCornersInfinitiesZerosAndTies) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kValues[] = {-kInf, kInf, -0.0, 0.0, 0.5, -1.0};
  for (const KernelOps* table : NonScalarTables()) {
    for (const int dim : kDims) {
      SCOPED_TRACE(std::string(simd::KernelArchName(table->arch)) +
                   " dim=" + std::to_string(dim));
      Rng rng(15000 + static_cast<uint64_t>(dim));
      const auto draw = [&](std::vector<double>* v) {
        for (double& x : *v) x = kValues[rng.UniformInt(0, 5)];
      };
      std::vector<double> pmin(static_cast<size_t>(dim));
      std::vector<double> pmax(static_cast<size_t>(dim));
      draw(&pmin);
      draw(&pmax);
      const int n = 40;
      std::vector<double> coords(static_cast<size_t>(n) * dim);
      draw(&coords);
      // Exact copies of either corner, and copies with one coordinate's
      // zero sign flipped.
      std::copy(pmin.begin(), pmin.end(), coords.begin());
      std::copy(pmax.begin(), pmax.end(), coords.begin() + dim);
      for (int k = 0; k < dim; ++k) {
        const double v = pmin[static_cast<size_t>(k)];
        coords[2 * static_cast<size_t>(dim) + k] = v == 0.0 ? -v : v;
      }
      // Gathered in reverse, so the last row is read first and last.
      std::vector<int> ids(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = n - 1 - i;
      ids.push_back(n - 1);
      const int count = static_cast<int>(ids.size());
      std::vector<unsigned char> expected(static_cast<size_t>(count), 0xee);
      std::vector<unsigned char> actual(static_cast<size_t>(count), 0xee);
      simd::internal::ScalarOps().ClassifyCorners(coords.data(), dim,
                                                  ids.data(), count,
                                                  pmin.data(), pmax.data(),
                                                  expected.data());
      table->ClassifyCorners(coords.data(), dim, ids.data(), count,
                             pmin.data(), pmax.data(), actual.data());
      EXPECT_EQ(0, std::memcmp(expected.data(), actual.data(),
                               expected.size()));
      // The copies of the corners must land in the classes they imply.
      EXPECT_EQ(simd::kClassDominatesMin, expected[n - 1]);
      EXPECT_NE(simd::kClassDiscard, expected[n - 2]);
      EXPECT_EQ(simd::kClassDominatesMin, expected[n - 3]);
    }
  }
}

// FilterCandidates's two lists, trimmed to the counts it returns. The
// lists get one slot past `count`, which must keep its canary.
struct FilterLists {
  std::vector<int> kept;
  std::vector<int> adds;
};

FilterLists Filter(const KernelOps& table, const std::vector<double>& coords,
                   int dim, const int* ids, int count,
                   const std::vector<double>& pmin,
                   const std::vector<double>& pmax) {
  constexpr int kCanary = -7;
  FilterLists lists{std::vector<int>(static_cast<size_t>(count) + 1, kCanary),
                    std::vector<int>(static_cast<size_t>(count) + 1, kCanary)};
  const simd::FilterCounts counts =
      table.FilterCandidates(coords.data(), dim, ids, count, pmin.data(),
                             pmax.data(), lists.kept.data(),
                             lists.adds.data());
  EXPECT_EQ(kCanary, lists.kept.back());
  EXPECT_EQ(kCanary, lists.adds.back());
  EXPECT_GE(counts.kept, 0);
  EXPECT_GE(counts.adds, 0);
  EXPECT_LE(counts.kept + counts.adds, count);
  lists.kept.resize(static_cast<size_t>(std::max(counts.kept, 0)));
  lists.adds.resize(static_cast<size_t>(std::max(counts.adds, 0)));
  return lists;
}

// The same table's ClassifyCorners followed by a stable split by class:
// what FilterCandidates must write.
FilterLists SplitByClass(const KernelOps& table,
                         const std::vector<double>& coords, int dim,
                         const int* ids, int count,
                         const std::vector<double>& pmin,
                         const std::vector<double>& pmax) {
  std::vector<unsigned char> classes(static_cast<size_t>(count));
  table.ClassifyCorners(coords.data(), dim, ids, count, pmin.data(),
                        pmax.data(), classes.data());
  FilterLists lists;
  for (int c = 0; c < count; ++c) {
    if (classes[static_cast<size_t>(c)] == simd::kClassDominatesMin) {
      lists.adds.push_back(ids[c]);
    } else if (classes[static_cast<size_t>(c)] == simd::kClassDominatesMax) {
      lists.kept.push_back(ids[c]);
    }
  }
  return lists;
}

// Every supported table, scalar included, against the scalar reference and
// against its own ClassifyCorners split. Dims 1 to 9 give every masked-tail
// width after zero and one full AVX2 chunk, and so both AVX2 row loops
// (dims 1 to 4 take the one without a chunk loop). Ids come in gapped,
// offset windows of a shuffled pool (two rows in three, starting at 0, 1
// or 2). Rows and corners mix ±inf, ±0.0, ties and random values; the
// corners are drawn ordered and unordered, and three rows copy a corner
// exactly (pmin, pmax, and pmin with its zeros' signs flipped). The rows,
// pmin and pmax are exactly sized heap blocks, so under ASan a read past
// the last row or either corner reports.
TEST(KernelSweep, FilterCandidates) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kValues[] = {-kInf, kInf, -0.0, 0.0, 0.5, -1.0};
  const int kCounts[] = {0, 1, 3, 5, 17, 33};
  constexpr int kRows = 60;
  constexpr int kPminCopy = kRows - 1;
  std::vector<const KernelOps*> tables = {&simd::internal::ScalarOps()};
  for (const KernelOps* table : NonScalarTables()) tables.push_back(table);
  for (int dim = 1; dim <= 9; ++dim) {
    for (const bool unordered : {false, true}) {
      Rng rng(16000 + static_cast<uint64_t>(dim) * 2 + unordered);
      const auto draw = [&](std::vector<double>* v) {
        for (double& x : *v) {
          const int kind = rng.UniformInt(0, 7);
          x = kind < 6 ? kValues[kind] : rng.Uniform(-1.0, 1.0);
        }
      };
      std::vector<double> pmin(static_cast<size_t>(dim));
      std::vector<double> pmax(static_cast<size_t>(dim));
      draw(&pmin);
      draw(&pmax);
      for (int k = 0; k < dim; ++k) {
        double& lo = pmin[static_cast<size_t>(k)];
        double& hi = pmax[static_cast<size_t>(k)];
        if ((lo > hi) != unordered) std::swap(lo, hi);
      }
      // Unordered corners: pmin lies above pmax in its last coordinate, so
      // the copy of pmin is ⪯ pmin but not ⪯ pmax.
      if (unordered) {
        pmin.back() = 1.0;
        pmax.back() = -1.0;
      }
      std::vector<double> coords(static_cast<size_t>(kRows) * dim);
      draw(&coords);
      std::copy(pmin.begin(), pmin.end(),
                &coords[static_cast<size_t>(kPminCopy) * dim]);
      std::copy(pmax.begin(), pmax.end(),
                &coords[static_cast<size_t>(kRows - 2) * dim]);
      for (int k = 0; k < dim; ++k) {
        const double v = pmin[static_cast<size_t>(k)];
        coords[static_cast<size_t>(kRows - 3) * dim + k] = v == 0.0 ? -v : v;
      }
      // Two rows in three, shuffled, with the corner copies up front.
      std::vector<int> pool = {kPminCopy, kRows - 3, kRows - 2};
      for (const int id : Permutation(kRows - 3, 17000 + dim)) {
        if (id % 3 != 1) pool.push_back(id);
      }
      for (const int offset : {0, 1, 2}) {
        for (const int count : kCounts) {
          SCOPED_TRACE("dim=" + std::to_string(dim) +
                       " unordered=" + std::to_string(unordered) +
                       " offset=" + std::to_string(offset) +
                       " count=" + std::to_string(count));
          ASSERT_LE(offset + count, static_cast<int>(pool.size()));
          const int* ids = pool.data() + offset;
          const FilterLists expected = Filter(simd::internal::ScalarOps(),
                                              coords, dim, ids, count, pmin,
                                              pmax);
          if (std::find(ids, ids + count, kPminCopy) != ids + count) {
            EXPECT_NE(std::find(expected.adds.begin(), expected.adds.end(),
                                kPminCopy),
                      expected.adds.end());
            EXPECT_EQ(std::find(expected.kept.begin(), expected.kept.end(),
                                kPminCopy),
                      expected.kept.end());
          }
          for (const KernelOps* table : tables) {
            SCOPED_TRACE(simd::KernelArchName(table->arch));
            const FilterLists actual =
                Filter(*table, coords, dim, ids, count, pmin, pmax);
            EXPECT_EQ(expected.kept, actual.kept);
            EXPECT_EQ(expected.adds, actual.adds);
            const FilterLists split =
                SplitByClass(*table, coords, dim, ids, count, pmin, pmax);
            EXPECT_EQ(split.kept, actual.kept);
            EXPECT_EQ(split.adds, actual.adds);
          }
        }
      }
    }
  }
}

TEST(KernelSweep, ScoreCorners) {
  for (const KernelOps* table : NonScalarTables()) {
    for (const int dim : kDims) {
      for (const int n : kSizes) {
        SCOPED_TRACE(std::string(simd::KernelArchName(table->arch)) +
                     " dim=" + std::to_string(dim) + " n=" +
                     std::to_string(n));
        const AlignedVector<double> coords =
            AdversarialStream(n * dim, 3000 + static_cast<uint64_t>(n));
        const std::vector<int> ids =
            Permutation(n, static_cast<uint64_t>(n) * 5 + 3);
        // Seed corners from adversarial values too, so ties between the
        // incumbent and a row (including -0.0 vs +0.0) occur.
        const AlignedVector<double> seed_corners =
            AdversarialStream(2 * dim, 4000 + static_cast<uint64_t>(dim));
        AlignedVector<double> expected(seed_corners);
        AlignedVector<double> actual(seed_corners);
        simd::internal::ScalarOps().ScoreCorners(coords.data(), dim,
                                                 ids.data(), n,
                                                 expected.data(),
                                                 expected.data() + dim);
        table->ScoreCorners(coords.data(), dim, ids.data(), n, actual.data(),
                            actual.data() + dim);
        EXPECT_TRUE(BitEqual(expected.data(), actual.data(), 2 * dim));
      }
    }
  }
}

TEST(KernelSweep, DominatedMaskCountAndAny) {
  for (const KernelOps* table : NonScalarTables()) {
    for (const int dim : kDims) {
      for (const int n : kSizes) {
        SCOPED_TRACE(std::string(simd::KernelArchName(table->arch)) +
                     " dim=" + std::to_string(dim) + " n=" +
                     std::to_string(n));
        const AlignedVector<double> rows =
            AdversarialStream(n * dim, 5000 + static_cast<uint64_t>(n));
        const AlignedVector<double> q =
            AdversarialStream(dim, 6000 + static_cast<uint64_t>(dim));
        std::vector<unsigned char> expected(static_cast<size_t>(n) + 1, 0xee);
        std::vector<unsigned char> actual(static_cast<size_t>(n) + 1, 0xee);
        simd::internal::ScalarOps().DominatedMask(rows.data(), n, dim,
                                                  q.data(), expected.data());
        table->DominatedMask(rows.data(), n, dim, q.data(), actual.data());
        EXPECT_EQ(expected, actual);
        EXPECT_EQ(
            simd::internal::ScalarOps().DominanceCount(rows.data(), n, dim,
                                                       q.data()),
            table->DominanceCount(rows.data(), n, dim, q.data()));
        EXPECT_EQ(
            simd::internal::ScalarOps().AnyRowDominates(rows.data(), n, dim,
                                                        q.data()),
            table->AnyRowDominates(rows.data(), n, dim, q.data()));
      }
    }
  }
}

TEST(KernelSweep, MapPoint) {
  for (const KernelOps* table : NonScalarTables()) {
    for (const int d : kDims) {
      for (const int dprime : kSizes) {
        if (dprime == 0) continue;
        SCOPED_TRACE(std::string(simd::KernelArchName(table->arch)) + " d=" +
                     std::to_string(d) + " d'=" + std::to_string(dprime));
        const AlignedVector<double> t =
            AdversarialStream(d, 7000 + static_cast<uint64_t>(d));
        const AlignedVector<double> vt = AdversarialStream(
            d * dprime, 8000 + static_cast<uint64_t>(dprime));
        AlignedVector<double> expected(static_cast<size_t>(dprime));
        AlignedVector<double> actual(static_cast<size_t>(dprime));
        simd::internal::ScalarOps().MapPoint(t.data(), d, vt.data(), dprime,
                                             expected.data());
        table->MapPoint(t.data(), d, vt.data(), dprime, actual.data());
        EXPECT_TRUE(BitEqual(expected.data(), actual.data(), dprime));
      }
    }
  }
}

// Rows gathered through ids at an offset: kernels must not assume the
// gather base is aligned or that ids start at 0.
TEST(KernelSweep, UnalignedGatherWindows) {
  for (const KernelOps* table : NonScalarTables()) {
    const int dim = 3;
    const int total = 40;
    const AlignedVector<double> coords = AdversarialStream(total * dim, 13);
    const AlignedVector<double> corners = AdversarialStream(2 * dim, 14);
    std::vector<int> ids = Permutation(total, 15);
    for (int begin : {0, 1, 2, 3, 5}) {
      for (int count : {0, 1, 2, 3, 4, 5, 9}) {
        SCOPED_TRACE(std::string(simd::KernelArchName(table->arch)) +
                     " begin=" + std::to_string(begin) + " count=" +
                     std::to_string(count));
        std::vector<unsigned char> expected(static_cast<size_t>(count) + 1,
                                            0xee);
        std::vector<unsigned char> actual(static_cast<size_t>(count) + 1,
                                          0xee);
        simd::internal::ScalarOps().ClassifyCorners(
            coords.data(), dim, ids.data() + begin, count, corners.data(),
            corners.data() + dim, expected.data());
        table->ClassifyCorners(coords.data(), dim, ids.data() + begin, count,
                               corners.data(), corners.data() + dim,
                               actual.data());
        EXPECT_EQ(expected, actual);
      }
    }
  }
}

// ------------------------------------------------------------- dispatch

TEST(KernelDispatch, SupportedArchesMatchesTables) {
  const std::vector<KernelArch> arches = simd::SupportedArches();
  ASSERT_FALSE(arches.empty());
  EXPECT_EQ(arches.front(), KernelArch::kScalar);
  const bool has_avx2 = simd::internal::Avx2OpsOrNull() != nullptr;
  EXPECT_EQ(std::count(arches.begin(), arches.end(), KernelArch::kAvx2),
            has_avx2 ? 1 : 0);
  EXPECT_EQ(arches.size(), has_avx2 ? 2u : 1u);
}

TEST(KernelDispatch, UnsupportedOverrideIsRejected) {
  const KernelArch original = simd::ActiveArch();
  const std::vector<KernelArch> arches = simd::SupportedArches();
  for (const KernelArch arch : {KernelArch::kScalar, KernelArch::kAvx2}) {
    const bool supported =
        std::count(arches.begin(), arches.end(), arch) > 0;
    EXPECT_EQ(simd::internal::SetArchForTesting(arch), supported);
    if (supported) {
      EXPECT_EQ(simd::ActiveArch(), arch);
      EXPECT_EQ(simd::Ops().arch, arch);
      EXPECT_STREQ(simd::ActiveArchName(), simd::KernelArchName(arch));
    }
  }
  ASSERT_TRUE(simd::internal::SetArchForTesting(original));
}

// ------------------------------------- registry-wide per-arch equivalence

// Every registered solver, run under every supported dispatch arch, must
// produce a bit-identical ArspResult: identical instance probabilities,
// identical goal bounds, identical deterministic work counters. This is the
// theorem the whole layer rests on — SIMD is a pure speedup, never a
// semantic change.
void SweepArchesThroughRegistry(const UncertainDataset& dataset,
                                const PreferenceRegion& region,
                                const QueryGoal& goal) {
  const KernelArch original = simd::ActiveArch();
  struct PerSolver {
    ArspResult result;
    bool ran = false;
  };
  std::map<std::string, PerSolver> reference;  // scalar-arch results

  for (const KernelArch arch : simd::SupportedArches()) {
    SCOPED_TRACE(simd::KernelArchName(arch));
    ASSERT_TRUE(simd::internal::SetArchForTesting(arch));
    for (const std::string& name : SolverRegistry::Names()) {
      SCOPED_TRACE(name);
      auto solver = SolverRegistry::Create(name);
      ASSERT_TRUE(solver.ok()) << name;
      // Fresh context per (arch, solver): cached artifacts (score buffers)
      // must be rebuilt under the arch being tested.
      ExecutionContext context(dataset, region);
      if (!(*solver)->ValidateContext(context).ok()) continue;
      auto result = (*solver)->Solve(context, goal);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      PerSolver& ref = reference[name];
      if (!ref.ran) {  // first arch in SupportedArches() is scalar
        ref.result = std::move(*result);
        ref.ran = true;
        continue;
      }
      const ArspResult& a = ref.result;
      const ArspResult& b = *result;
      ASSERT_EQ(a.instance_probs.size(), b.instance_probs.size());
      EXPECT_TRUE(BitEqual(a.instance_probs.data(), b.instance_probs.data(),
                           static_cast<int>(a.instance_probs.size())));
      ASSERT_EQ(a.object_bounds.size(), b.object_bounds.size());
      for (size_t j = 0; j < a.object_bounds.size(); ++j) {
        EXPECT_TRUE(BitEqual(&a.object_bounds[j].lower,
                             &b.object_bounds[j].lower, 1))
            << "object " << j;
        EXPECT_TRUE(BitEqual(&a.object_bounds[j].upper,
                             &b.object_bounds[j].upper, 1))
            << "object " << j;
      }
      EXPECT_EQ(a.object_decisions, b.object_decisions);
      EXPECT_EQ(a.dominance_tests, b.dominance_tests);
      EXPECT_EQ(a.nodes_visited, b.nodes_visited);
      EXPECT_EQ(a.objects_pruned, b.objects_pruned);
      EXPECT_EQ(a.bound_refinements, b.bound_refinements);
      EXPECT_EQ(a.complete, b.complete);
    }
  }
  ASSERT_TRUE(simd::internal::SetArchForTesting(original));
}

TEST(ArchEquivalence, FullGoalAcrossRegistry) {
  for (uint64_t seed = 900; seed < 903; ++seed) {
    SCOPED_TRACE(seed);
    const int dim = 2 + static_cast<int>(seed % 3);
    const UncertainDataset dataset =
        RandomDataset(12, 3, dim, 0.4, seed, seed % 2 == 0);
    SweepArchesThroughRegistry(dataset, WrRegion(dim, dim - 1),
                               QueryGoal::Full());
  }
}

TEST(ArchEquivalence, TopKGoalAcrossRegistry) {
  const UncertainDataset dataset = RandomDataset(15, 3, 3, 0.4, 910, true);
  SweepArchesThroughRegistry(dataset, WrRegion(3, 2), QueryGoal::TopK(4));
}

TEST(ArchEquivalence, ThresholdGoalAcrossRegistry) {
  const UncertainDataset dataset = RandomDataset(15, 3, 3, 0.4, 911);
  SweepArchesThroughRegistry(dataset, WrRegion(3, 2),
                             QueryGoal::Threshold(0.3));
}

}  // namespace
}  // namespace arsp
