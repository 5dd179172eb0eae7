#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace subex {
namespace {

TEST(DescriptiveTest, Mean) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{}), 0.0);
}

TEST(DescriptiveTest, SampleVariance) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Sum of squared deviations = 32, n-1 = 7.
  EXPECT_NEAR(SampleVariance(v), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(SampleVariance(std::vector<double>{5.0}), 0.0);
}

TEST(DescriptiveTest, PopulationVariance) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(PopulationVariance(v), 4.0, 1e-12);
}

TEST(DescriptiveTest, StdDevIsSqrtOfVariance) {
  const std::vector<double> v = {1.0, 3.0, 5.0};
  EXPECT_NEAR(SampleStdDev(v), std::sqrt(SampleVariance(v)), 1e-15);
}

TEST(DescriptiveTest, Max) {
  const std::vector<double> v = {3.0, -1.0, 7.0, 0.0};
  EXPECT_EQ(Max(v), 7.0);
}

TEST(DescriptiveTest, MedianOdd) {
  const std::vector<double> v = {9.0, 1.0, 5.0};
  EXPECT_EQ(Median(v), 5.0);
}

TEST(DescriptiveTest, MedianEven) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(Median(v), 2.5);
}

TEST(DescriptiveTest, MedianDoesNotReorderInput) {
  std::vector<double> v = {9.0, 1.0, 5.0};
  (void)Median(v);
  EXPECT_EQ(v, (std::vector<double>{9.0, 1.0, 5.0}));
}

TEST(DescriptiveTest, StandardizeMeanZeroUnitVariance) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> z = Standardize(v);
  EXPECT_NEAR(Mean(z), 0.0, 1e-12);
  EXPECT_NEAR(PopulationVariance(z), 1.0, 1e-12);
  // Order preserved.
  for (std::size_t i = 1; i < z.size(); ++i) EXPECT_GT(z[i], z[i - 1]);
}

TEST(DescriptiveTest, StandardizeConstantInputIsAllZero) {
  const std::vector<double> v = {3.0, 3.0, 3.0};
  const std::vector<double> z = Standardize(v);
  for (double x : z) EXPECT_EQ(x, 0.0);
}

TEST(DescriptiveTest, StandardizeEmpty) {
  EXPECT_TRUE(Standardize(std::vector<double>{}).empty());
}

TEST(DescriptiveTest, StandardizeIsAffineInvariantInRank) {
  const std::vector<double> v = {1.0, 5.0, 2.0, 8.0};
  std::vector<double> w;
  for (double x : v) w.push_back(3.0 * x + 10.0);
  const std::vector<double> zv = Standardize(v);
  const std::vector<double> zw = Standardize(w);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(zv[i], zw[i], 1e-12);
  }
}

}  // namespace
}  // namespace subex
