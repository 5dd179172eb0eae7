#include "subspace/subspace.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

namespace subex {
namespace {

TEST(SubspaceTest, DefaultIsEmpty) {
  Subspace s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
}

TEST(SubspaceTest, CanonicalizesSortsAndDedups) {
  Subspace s({5, 1, 3, 1, 5});
  EXPECT_EQ(s.features(), (std::vector<FeatureId>{1, 3, 5}));
  EXPECT_EQ(s.size(), 3u);
}

TEST(SubspaceTest, EqualityIgnoresConstructionOrder) {
  EXPECT_EQ(Subspace({2, 0, 1}), Subspace({0, 1, 2}));
  EXPECT_FALSE(Subspace({0, 1}) == Subspace({0, 2}));
}

TEST(SubspaceTest, Contains) {
  Subspace s({1, 4, 7});
  EXPECT_TRUE(s.Contains(4));
  EXPECT_FALSE(s.Contains(2));
}

TEST(SubspaceTest, ContainsAll) {
  Subspace s({1, 4, 7});
  EXPECT_TRUE(s.ContainsAll(Subspace({1, 7})));
  EXPECT_TRUE(s.ContainsAll(Subspace({})));
  EXPECT_TRUE(s.ContainsAll(s));
  EXPECT_FALSE(s.ContainsAll(Subspace({1, 2})));
  EXPECT_FALSE(Subspace({1}).ContainsAll(s));
}

TEST(SubspaceTest, WithAddsFeature) {
  Subspace s({1, 3});
  EXPECT_EQ(s.With(2), Subspace({1, 2, 3}));
  EXPECT_EQ(s.With(3), s);  // Already present.
}

TEST(SubspaceTest, UnionMerges) {
  EXPECT_EQ(Subspace({0, 2}).Union(Subspace({1, 2, 5})),
            Subspace({0, 1, 2, 5}));
}

TEST(SubspaceTest, ResolveFeaturesEmptyMeansEveryFeature) {
  EXPECT_EQ(ResolveFeatures(Subspace(), 2), (std::vector<FeatureId>{0, 1}));
  EXPECT_EQ(ResolveFeatures(Subspace({4, 1}), 6),
            (std::vector<FeatureId>{1, 4}));
}

TEST(SubspaceTest, ToString) {
  EXPECT_EQ(Subspace({3, 1}).ToString(), "{f1,f3}");
  EXPECT_EQ(Subspace().ToString(), "{}");
}

TEST(SubspaceTest, OrderingIsLexicographic) {
  EXPECT_LT(Subspace({0, 1}), Subspace({0, 2}));
  EXPECT_LT(Subspace({0}), Subspace({0, 1}));
}

TEST(SubspaceTest, HashConsistentWithEquality) {
  SubspaceHash hash;
  EXPECT_EQ(hash(Subspace({2, 0, 1})), hash(Subspace({0, 1, 2})));
  std::unordered_set<Subspace, SubspaceHash> set;
  set.insert(Subspace({0, 1}));
  set.insert(Subspace({1, 0}));
  set.insert(Subspace({0, 2}));
  EXPECT_EQ(set.size(), 2u);
}

TEST(SubspaceTest, HashSpreadsDistinctSubspaces) {
  SubspaceHash hash;
  std::unordered_set<std::size_t> hashes;
  for (int a = 0; a < 12; ++a) {
    for (int b = a + 1; b < 12; ++b) {
      hashes.insert(hash(Subspace({a, b})));
    }
  }
  EXPECT_EQ(hashes.size(), 66u);  // No collisions across 12-choose-2 pairs.
}

}  // namespace
}  // namespace subex
