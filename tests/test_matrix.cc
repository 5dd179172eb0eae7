#include "common/matrix.h"

#include <gtest/gtest.h>

#include <vector>

namespace subex {
namespace {

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(MatrixTest, InitializerListLayout) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(2, 0), 5.0);
}

TEST(MatrixTest, ElementWriteReadRoundTrip) {
  Matrix m(2, 2);
  m(1, 0) = 7.5;
  EXPECT_EQ(m(1, 0), 7.5);
  EXPECT_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, RowSpanIsView) {
  Matrix m = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const auto row = m.Row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 4.0);
  EXPECT_EQ(row[2], 6.0);
  m(1, 2) = 9.0;
  EXPECT_EQ(row[2], 9.0);  // Same storage.
}

TEST(MatrixTest, ColumnCopies) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const std::vector<double> col = m.Column(1);
  EXPECT_EQ(col, (std::vector<double>{2.0, 4.0, 6.0}));
}

TEST(MatrixTest, AppendRowGrowsAndSetsWidth) {
  Matrix m;
  const std::vector<double> r0 = {1.0, 2.0, 3.0};
  const std::vector<double> r1 = {4.0, 5.0, 6.0};
  m.AppendRow(r0);
  EXPECT_EQ(m.cols(), 3u);
  m.AppendRow(r1);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m(1, 1), 5.0);
}

TEST(MatrixTest, SelectColumnsReorders) {
  Matrix m = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const std::vector<int> cols = {2, 0};
  const Matrix s = m.SelectColumns(cols);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_EQ(s(0, 0), 3.0);
  EXPECT_EQ(s(0, 1), 1.0);
  EXPECT_EQ(s(1, 0), 6.0);
}

TEST(MatrixTest, SelectRowsReorders) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const std::vector<int> rows = {2, 2, 0};
  const Matrix s = m.SelectRows(rows);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_EQ(s(0, 0), 5.0);
  EXPECT_EQ(s(1, 0), 5.0);
  EXPECT_EQ(s(2, 1), 2.0);
}

TEST(MatrixTest, EqualityIsElementWise) {
  Matrix a = {{1.0, 2.0}};
  Matrix b = {{1.0, 2.0}};
  Matrix c = {{1.0, 2.5}};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace subex
