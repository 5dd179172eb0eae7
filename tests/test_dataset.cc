#include "data/dataset.h"

#include <gtest/gtest.h>

#include <vector>

namespace subex {
namespace {

Dataset MakeSmall() {
  Matrix m = {{0.5, 9.0}, {0.1, 7.0}, {0.9, 8.0}, {0.3, 6.0}};
  return Dataset(std::move(m), {2});
}

TEST(DatasetTest, Shape) {
  const Dataset d = MakeSmall();
  EXPECT_EQ(d.num_points(), 4u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_EQ(d.Value(2, 1), 8.0);
}

TEST(DatasetTest, OutlierIndicesSortedDeduped) {
  Matrix m = {{0.0}, {1.0}, {2.0}};
  Dataset d(std::move(m), {2, 0, 2});
  EXPECT_EQ(d.outlier_indices(), (std::vector<int>{0, 2}));
  EXPECT_TRUE(d.IsOutlier(0));
  EXPECT_FALSE(d.IsOutlier(1));
  EXPECT_TRUE(d.IsOutlier(2));
}

TEST(DatasetTest, ContaminationRatio) {
  const Dataset d = MakeSmall();
  EXPECT_DOUBLE_EQ(d.ContaminationRatio(), 0.25);
}

TEST(DatasetTest, SetOutlierIndicesReplaces) {
  Dataset d = MakeSmall();
  d.SetOutlierIndices({1, 3});
  EXPECT_EQ(d.outlier_indices(), (std::vector<int>{1, 3}));
  EXPECT_FALSE(d.IsOutlier(2));
}

TEST(DatasetTest, SortedIndexByFeature) {
  const Dataset d = MakeSmall();
  EXPECT_EQ(d.SortedIndexByFeature(0), (std::vector<int>{1, 3, 0, 2}));
  EXPECT_EQ(d.SortedIndexByFeature(1), (std::vector<int>{3, 1, 2, 0}));
}

TEST(DatasetTest, SortedIndexIsCachedReference) {
  const Dataset d = MakeSmall();
  const std::vector<int>* first = &d.SortedIndexByFeature(0);
  const std::vector<int>* second = &d.SortedIndexByFeature(0);
  EXPECT_EQ(first, second);
}

TEST(DatasetTest, NormalizeMinMaxMapsToUnitInterval) {
  Dataset d = MakeSmall();
  d.NormalizeMinMax();
  EXPECT_DOUBLE_EQ(d.Value(1, 0), 0.0);  // min of feature 0 (0.1).
  EXPECT_DOUBLE_EQ(d.Value(2, 0), 1.0);  // max of feature 0 (0.9).
  EXPECT_DOUBLE_EQ(d.Value(3, 1), 0.0);  // min of feature 1 (6.0).
  EXPECT_DOUBLE_EQ(d.Value(0, 1), 1.0);  // max of feature 1 (9.0).
}

TEST(DatasetTest, NormalizeMinMaxConstantFeature) {
  Matrix m = {{5.0}, {5.0}, {5.0}};
  Dataset d(std::move(m));
  d.NormalizeMinMax();
  for (std::size_t p = 0; p < 3; ++p) EXPECT_EQ(d.Value(p, 0), 0.0);
}

TEST(DatasetTest, NormalizeInvalidatesSortCache) {
  Dataset d = MakeSmall();
  (void)d.SortedIndexByFeature(0);
  d.NormalizeMinMax();
  // Order is unchanged by the affine map, but the cache must be rebuilt
  // without crashing and still be correct.
  EXPECT_EQ(d.SortedIndexByFeature(0), (std::vector<int>{1, 3, 0, 2}));
}

TEST(DatasetTest, CopySharesNothingObservable) {
  Dataset d = MakeSmall();
  Dataset copy = d;
  copy.SetOutlierIndices({0});
  EXPECT_TRUE(d.IsOutlier(2));
  EXPECT_FALSE(d.IsOutlier(0));
}

}  // namespace
}  // namespace subex
