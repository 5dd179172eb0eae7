#include "common/topk.h"

#include <gtest/gtest.h>

#include <vector>

namespace subex {
namespace {

TEST(TopkTest, TopKBasic) {
  const std::vector<double> v = {0.5, 9.0, 3.0, 7.0};
  EXPECT_EQ(TopKIndices(v, 2), (std::vector<int>{1, 3}));
}

TEST(TopkTest, TopKClampsToSize) {
  const std::vector<double> v = {2.0, 1.0};
  EXPECT_EQ(TopKIndices(v, 10), (std::vector<int>{0, 1}));
}

TEST(TopkTest, TopKTieBreaksByIndex) {
  const std::vector<double> v = {5.0, 5.0, 5.0};
  EXPECT_EQ(TopKIndices(v, 2), (std::vector<int>{0, 1}));
}

TEST(TopkTest, TopKZero) {
  const std::vector<double> v = {1.0};
  EXPECT_TRUE(TopKIndices(v, 0).empty());
}

TEST(TopkTest, TopKEmptyInput) {
  const std::vector<double> v;
  EXPECT_TRUE(TopKIndices(v, 3).empty());
}

TEST(TopkTest, RanksDescending) {
  const std::vector<double> v = {0.5, 9.0, 3.0};
  EXPECT_EQ(RanksDescending(v), (std::vector<int>{2, 0, 1}));
}

}  // namespace
}  // namespace subex
