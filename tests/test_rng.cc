#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace subex {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(0, 1 << 30) != b.UniformInt(0, 1 << 30)) ++differing;
  }
  EXPECT_GT(differing, 45);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIndexInRange) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LT(rng.UniformIndex(9), 9u);
  }
}

TEST(RngTest, UniformRealHalfOpen) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Uniform(2.0, 4.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 4.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 3.0, 0.05);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RngTest, SampleWithoutReplacementDistinctSortedInRange) {
  Rng rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<int> sample = rng.SampleWithoutReplacement(20, 8);
    ASSERT_EQ(sample.size(), 8u);
    EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
    const std::set<int> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    EXPECT_GE(sample.front(), 0);
    EXPECT_LT(sample.back(), 20);
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(23);
  const std::vector<int> sample = rng.SampleWithoutReplacement(5, 5);
  EXPECT_EQ(sample, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RngTest, SampleWithoutReplacementCoversAllValues) {
  Rng rng(29);
  std::set<int> seen;
  for (int trial = 0; trial < 300; ++trial) {
    for (int v : rng.SampleWithoutReplacement(10, 3)) seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

// Reference sampler: Floyd's algorithm with a linear `std::find` over the
// values chosen so far, then a sort. `Rng::SampleWithoutReplacement` must
// match it draw for draw.
std::vector<int> ReferenceSample(Rng& rng, int n, int k) {
  std::vector<int> chosen;
  for (int j = n - k; j < n; ++j) {
    const int t = rng.UniformInt(0, j);
    if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
      chosen.push_back(t);
    } else {
      chosen.push_back(j);
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

TEST(RngTest, SampleWithoutReplacementMatchesReferenceSampler) {
  Rng shapes(41);
  std::vector<std::pair<int, int>> cases = {{1, 0}, {1, 1}, {7, 0}, {7, 7},
                                            {300, 256}, {256, 256}};
  for (int trial = 0; trial < 200; ++trial) {
    const int n = shapes.UniformInt(1, 400);
    cases.emplace_back(n, shapes.UniformInt(0, n));
  }
  for (const auto& [n, k] : cases) {
    const std::uint64_t seed = shapes.engine()();
    Rng actual(seed);
    Rng reference(seed);
    EXPECT_EQ(actual.SampleWithoutReplacement(n, k),
              ReferenceSample(reference, n, k))
        << "n=" << n << " k=" << k;
    // Callers such as the isolation forest keep drawing from the same Rng
    // after sampling, so both must have consumed the same draws.
    EXPECT_EQ(actual.engine()(), reference.engine()())
        << "n=" << n << " k=" << k;
  }
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(31);
  std::vector<int> values = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, values);
}

TEST(RngTest, ForkIsIndependentStream) {
  Rng parent(37);
  Rng child = parent.Fork();
  // The child must not replay the parent's stream.
  Rng parent_copy(37);
  (void)parent_copy.engine()();  // Parent consumed one draw for the fork.
  int matches = 0;
  for (int i = 0; i < 20; ++i) {
    if (child.UniformInt(0, 1 << 30) == parent_copy.UniformInt(0, 1 << 30)) {
      ++matches;
    }
  }
  EXPECT_LT(matches, 5);
}

}  // namespace
}  // namespace subex
