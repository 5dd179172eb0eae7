#include "detect/knn.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace subex {
namespace {

Dataset LineDataset() {
  // Points at x = 0, 1, 2, 10 on a line (second feature is a decoy).
  Matrix m = {{0.0, 100.0}, {1.0, -50.0}, {2.0, 0.0}, {10.0, 7.0}};
  return Dataset(std::move(m));
}

TEST(KnnTest, NearestNeighborOnLine) {
  const Dataset d = LineDataset();
  const KnnTable knn = ComputeKnn(d, Subspace({0}), 1);
  EXPECT_EQ(knn.neighbors[0][0].index, 1);
  EXPECT_DOUBLE_EQ(knn.neighbors[0][0].distance, 1.0);
  EXPECT_EQ(knn.neighbors[3][0].index, 2);
  EXPECT_DOUBLE_EQ(knn.neighbors[3][0].distance, 8.0);
}

TEST(KnnTest, ExcludesSelf) {
  const Dataset d = LineDataset();
  const KnnTable knn = ComputeKnn(d, Subspace({0}), 3);
  for (std::size_t p = 0; p < d.num_points(); ++p) {
    for (const Neighbor& nb : knn.neighbors[p]) {
      EXPECT_NE(nb.index, static_cast<int>(p));
    }
  }
}

TEST(KnnTest, DistancesAscending) {
  Rng rng(4);
  Matrix m(60, 3);
  for (std::size_t p = 0; p < 60; ++p) {
    for (std::size_t f = 0; f < 3; ++f) m(p, f) = rng.Uniform();
  }
  const Dataset d(std::move(m));
  const KnnTable knn = ComputeKnn(d, Subspace(), 10);
  for (const auto& nbs : knn.neighbors) {
    ASSERT_EQ(nbs.size(), 10u);
    for (std::size_t i = 1; i < nbs.size(); ++i) {
      EXPECT_GE(nbs[i].distance, nbs[i - 1].distance);
    }
  }
}

TEST(KnnTest, KClampedToNMinusOne) {
  const Dataset d = LineDataset();
  const KnnTable knn = ComputeKnn(d, Subspace({0}), 100);
  EXPECT_EQ(knn.k, 3);
  EXPECT_EQ(knn.neighbors[0].size(), 3u);
}

TEST(KnnTest, KDistanceIsLastNeighbor) {
  const Dataset d = LineDataset();
  const KnnTable knn = ComputeKnn(d, Subspace({0}), 2);
  EXPECT_DOUBLE_EQ(knn.KDistance(0), 2.0);  // Neighbors of 0: x=1, x=2.
}

TEST(KnnTest, SubspaceRestrictsDistance) {
  const Dataset d = LineDataset();
  // In feature 1, the nearest neighbor of point 2 (value 0) is point 3
  // (value 7), not its feature-0 neighbors.
  const KnnTable knn = ComputeKnn(d, Subspace({1}), 1);
  EXPECT_EQ(knn.neighbors[2][0].index, 3);
}

TEST(KnnTest, DistanceRestrictedToFeatures) {
  Matrix m = {{0.0, 0.0, 10.0}, {3.0, 4.0, -10.0}};
  const Dataset d(std::move(m));
  EXPECT_DOUBLE_EQ(ComputeKnn(d, Subspace({0, 1}), 1).KDistance(0), 5.0);
  EXPECT_DOUBLE_EQ(ComputeKnn(d, Subspace(), 1).KDistance(0),
                   std::sqrt(425.0));
}

TEST(KnnTest, EmptySubspaceMeansFullSpace) {
  const Dataset d = LineDataset();
  const KnnTable full = ComputeKnn(d, Subspace(), 2);
  const KnnTable both = ComputeKnn(d, Subspace({0, 1}), 2);
  for (std::size_t p = 0; p < d.num_points(); ++p) {
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(full.neighbors[p][i].index, both.neighbors[p][i].index);
      EXPECT_DOUBLE_EQ(full.neighbors[p][i].distance,
                       both.neighbors[p][i].distance);
    }
  }
}

TEST(KnnTest, TieBrokenByIndex) {
  Matrix m = {{0.0}, {1.0}, {-1.0}, {5.0}};
  const Dataset d(std::move(m));
  const KnnTable knn = ComputeKnn(d, Subspace({0}), 1);
  // Points 1 and 2 are both at distance 1 from point 0; index 1 wins.
  EXPECT_EQ(knn.neighbors[0][0].index, 1);
}

TEST(KnnTest, DuplicatePointsZeroDistance) {
  Matrix m = {{2.0, 2.0}, {2.0, 2.0}, {3.0, 3.0}};
  const Dataset d(std::move(m));
  const KnnTable knn = ComputeKnn(d, Subspace(), 1);
  EXPECT_EQ(knn.neighbors[0][0].index, 1);
  EXPECT_DOUBLE_EQ(knn.neighbors[0][0].distance, 0.0);
}

// The kernel's lists must not depend on how candidates are split into
// blocks (chunks) or tiles: 2,500 points with heavy ties, fed as one block
// and as uneven blocks straddling the tile size, give the same bits.
TEST(KnnTest, SearchIsIndependentOfBlockSplit) {
  constexpr int kN = 2500;
  Rng rng(3);
  std::vector<double> x(kN);
  std::vector<double> y(kN);
  for (int p = 0; p < kN; ++p) {
    x[p] = static_cast<double>(rng.UniformInt(0, 9));
    y[p] = rng.Uniform();
  }
  const std::vector<const double*> columns = {x.data(), y.data()};
  const std::vector<int> queries = {0, 1023, 1024, 2499, 7};
  std::vector<double> query_values;  // Column-major: x of every query, then y.
  for (const std::vector<double>* column : {&x, &y}) {
    for (int q : queries) query_values.push_back((*column)[q]);
  }

  KnnSearch whole(12, kN, queries, query_values);
  whole.AddBlock(columns, 0, kN);
  const std::vector<std::vector<Neighbor>> expected = std::move(whole).Finish();

  KnnSearch split(12, kN, queries, query_values);
  int first = 0;
  for (int rows : {1, 6, 1030, 1, 1400, 62}) {
    const std::vector<const double*> block = {x.data() + first,
                                              y.data() + first};
    split.AddBlock(block, first, rows);
    first += rows;
  }
  ASSERT_EQ(first, kN);
  const std::vector<std::vector<Neighbor>> actual = std::move(split).Finish();

  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].size(), 12u);
    for (std::size_t j = 0; j < expected[i].size(); ++j) {
      EXPECT_EQ(actual[i][j].index, expected[i][j].index);
      EXPECT_EQ(actual[i][j].distance, expected[i][j].distance);
      EXPECT_NE(actual[i][j].index, queries[i]);
    }
  }
}

}  // namespace
}  // namespace subex
