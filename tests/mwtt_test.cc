// Copyright 2026 The ARSP Authors.


#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace arsp {
namespace {

using testing_util::RandomDataset;
using testing_util::RunSolver;
using testing_util::WrRegion;

struct FanoutCase {
  int fanout;
  int dim;
  uint64_t seed;
};

void PrintTo(const FanoutCase& c, std::ostream* os) {
  *os << "fanout=" << c.fanout << " d=" << c.dim << " seed=" << c.seed;
}

class MwttSweep : public ::testing::TestWithParam<FanoutCase> {};

TEST_P(MwttSweep, AgreesWithLoop) {
  const FanoutCase& c = GetParam();
  const UncertainDataset dataset =
      RandomDataset(40, 4, c.dim, 0.25, c.seed, c.seed % 2 == 0);
  const PreferenceRegion region = WrRegion(c.dim, c.dim - 1);
  EXPECT_LT(
      MaxAbsDiff(RunSolver("loop", dataset, region),
                 RunSolver("mwtt", dataset, region,
                           SolverOptions().SetInt("fanout", c.fanout))),
      1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MwttSweep,
    ::testing::Values(FanoutCase{2, 2, 1}, FanoutCase{2, 4, 2},
                      FanoutCase{4, 3, 3}, FanoutCase{8, 3, 4},
                      FanoutCase{8, 5, 5}, FanoutCase{16, 2, 6},
                      FanoutCase{16, 4, 7}, FanoutCase{32, 3, 8},
                      FanoutCase{64, 2, 9}, FanoutCase{3, 3, 10}));

TEST(MwttTest, MatchesEnumOnTinyInputs) {
  for (uint64_t seed = 70; seed < 76; ++seed) {
    const int dim = 2 + static_cast<int>(seed % 2);
    const UncertainDataset dataset = RandomDataset(6, 3, dim, 0.4, seed);
    const PreferenceRegion region = WrRegion(dim, dim - 1);
    EXPECT_LT(MaxAbsDiff(RunSolver("enum", dataset, region),
                         RunSolver("mwtt", dataset, region)),
              1e-10)
        << seed;
  }
}

TEST(MwttTest, PrunesUnderFullDominator) {
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{0.0, 0.0}, 1.0);
  Rng rng(4);
  for (int j = 0; j < 100; ++j) {
    builder.AddSingleton(Point{rng.Uniform(0.1, 1.0), rng.Uniform(0.1, 1.0)},
                         1.0);
  }
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  const ArspResult result = RunSolver("mwtt", *dataset, region);
  EXPECT_EQ(CountNonZero(result), 1);
  EXPECT_GT(result.nodes_pruned, 0);
}

TEST(MwttTest, DuplicateHeavyData) {
  UncertainDatasetBuilder builder(2);
  for (int j = 0; j < 8; ++j) {
    builder.AddObject({Point{0.5, 0.5}, Point{0.75, 0.25}}, {0.5, 0.5});
  }
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const PreferenceRegion region = WrRegion(2, 1);
  EXPECT_LT(MaxAbsDiff(RunSolver("enum", *dataset, region),
                       RunSolver("mwtt", *dataset, region)),
            1e-10);
}

}  // namespace
}  // namespace arsp
