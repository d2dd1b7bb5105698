// Copyright 2026 The ARSP Authors.

#include "src/io/csv.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace arsp {
namespace {

constexpr char kSmallCsv[] =
    "# comment line\n"
    "car-a,0.5,2.0,10.0\n"
    "car-a,0.5,14.0,14.0\n"
    "car-b,1.0,3.0,3.0\n"
    "\n"
    "car-c,0.6,12.0,1.0\n";

TEST(CsvTest, ParsesObjectsInFirstAppearanceOrder) {
  std::vector<std::string> names;
  const auto dataset = ParseUncertainDatasetCsv(kSmallCsv, false, &names);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset->dim(), 2);
  EXPECT_EQ(dataset->num_objects(), 3);
  EXPECT_EQ(dataset->num_instances(), 4);
  EXPECT_EQ(names, (std::vector<std::string>{"car-a", "car-b", "car-c"}));
  EXPECT_EQ(dataset->object_size(0), 2);
  EXPECT_DOUBLE_EQ(dataset->object_prob(2), 0.6);
  EXPECT_EQ(dataset->instance(2).point, (Point{3.0, 3.0}));
}

TEST(CsvTest, HeaderIsSkippedWhenRequested) {
  const std::string with_header =
      std::string("object,prob,x,y\n") + "a,1.0,1.0,2.0\n";
  EXPECT_FALSE(ParseUncertainDatasetCsv(with_header, false).ok());
  const auto dataset = ParseUncertainDatasetCsv(with_header, true);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->num_instances(), 1);
}

TEST(CsvTest, RejectsMalformedRows) {
  EXPECT_FALSE(ParseUncertainDatasetCsv("a,1.0\n").ok());          // no attrs
  EXPECT_FALSE(ParseUncertainDatasetCsv("a,zap,1.0\n").ok());      // bad prob
  EXPECT_FALSE(ParseUncertainDatasetCsv("a,0.5,1.0,zap\n").ok());  // bad attr
  EXPECT_FALSE(ParseUncertainDatasetCsv("").ok());                 // empty
  // Inconsistent dimensionality.
  EXPECT_FALSE(
      ParseUncertainDatasetCsv("a,0.5,1.0,2.0\nb,0.5,1.0\n").ok());
  // Probability violations surface as dataset validation errors.
  EXPECT_FALSE(ParseUncertainDatasetCsv("a,0.7,1.0\na,0.7,2.0\n").ok());
}

TEST(CsvTest, RejectsNonFiniteValues) {
  // strtod accepts these spellings; the parser must not — NaN/inf would
  // poison every downstream comparison and index bound.
  EXPECT_FALSE(ParseUncertainDatasetCsv("a,nan,1.0\n").ok());
  EXPECT_FALSE(ParseUncertainDatasetCsv("a,inf,1.0\n").ok());
  EXPECT_FALSE(ParseUncertainDatasetCsv("a,0.5,nan\n").ok());
  EXPECT_FALSE(ParseUncertainDatasetCsv("a,0.5,-inf\n").ok());
  EXPECT_FALSE(ParseUncertainDatasetCsv("a,0.5,1e999\n").ok());  // overflow
}

TEST(CsvTest, ProbabilityErrorsNameTheLine) {
  // Out-of-range probabilities fail at the offending row, not as an
  // anonymous builder error after the whole file parsed.
  const auto zero = ParseUncertainDatasetCsv("a,0.5,1.0\nb,0,2.0\n");
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("line 2"), std::string::npos)
      << zero.status().ToString();
  const auto above = ParseUncertainDatasetCsv("a,1.5,1.0\n");
  ASSERT_FALSE(above.ok());
  EXPECT_NE(above.status().message().find("line 1"), std::string::npos);
  const auto negative = ParseUncertainDatasetCsv("a,-0.5,1.0\n");
  EXPECT_FALSE(negative.ok());
  // Per-object sums are checked incrementally: the error names the row
  // that crossed 1 and the object key.
  const auto sum =
      ParseUncertainDatasetCsv("a,0.6,1.0\nb,1.0,3.0\na,0.6,2.0\n");
  ASSERT_FALSE(sum.ok());
  EXPECT_NE(sum.status().message().find("line 3"), std::string::npos)
      << sum.status().ToString();
  EXPECT_NE(sum.status().message().find("'a'"), std::string::npos);
}

TEST(CsvTest, RejectsEmptyObjectKeyAndToleratesTrailingBlankLines) {
  EXPECT_FALSE(ParseUncertainDatasetCsv(",0.5,1.0\n").ok());
  EXPECT_FALSE(ParseUncertainDatasetCsv("  ,0.5,1.0\n").ok());
  // Trailing blank lines (and CRLF blanks) are not data rows.
  const auto dataset =
      ParseUncertainDatasetCsv("a,0.5,1.0\n\n\r\n  \n", false);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset->num_instances(), 1);
}

TEST(CsvTest, RoundTripThroughResultCsv) {
  std::vector<std::string> names;
  const auto dataset = ParseUncertainDatasetCsv(kSmallCsv, false, &names);
  ASSERT_TRUE(dataset.ok());
  const ArspResult result = testing_util::RunSolver(
      "loop", *dataset, testing_util::WrRegion(2, 1));

  const std::string inst_csv = FormatArspResultCsv(result, *dataset, &names);
  EXPECT_NE(inst_csv.find("object,instance,prob,pr_rsky"), std::string::npos);
  EXPECT_NE(inst_csv.find("car-b"), std::string::npos);
  // One header plus one row per instance.
  EXPECT_EQ(std::count(inst_csv.begin(), inst_csv.end(), '\n'),
            dataset->num_instances() + 1);

  const std::string obj_csv = FormatObjectResultCsv(result, *dataset, &names);
  EXPECT_EQ(std::count(obj_csv.begin(), obj_csv.end(), '\n'),
            dataset->num_objects() + 1);
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/arsp_csv_test.csv";
  ASSERT_TRUE(WriteTextFile(path, kSmallCsv).ok());
  const auto dataset = LoadUncertainDatasetCsv(path);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->num_instances(), 4);
  EXPECT_FALSE(LoadUncertainDatasetCsv(path + ".does-not-exist").ok());
}

TEST(CsvTest, WhitespaceTolerance) {
  const auto dataset =
      ParseUncertainDatasetCsv("  a , 0.5 , 1.0 , 2.0 \r\n", false);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset->instance(0).point, (Point{1.0, 2.0}));
}

}  // namespace
}  // namespace arsp
