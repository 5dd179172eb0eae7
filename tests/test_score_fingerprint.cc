// Golden score fingerprints and concurrent-scoring checks for every
// detector of the testbed: the kNN family (LOF, Fast ABOD, kNN distance),
// exact ABOD and the detectors whose kernels draw from `Rng` (iForest,
// LODA).
//
// A fingerprint hashes the u64 bit patterns of `Score` over a fixed set of
// subspaces of seeded datasets, so any kernel rewrite that moves a single
// bit of a single score fails here. The iForest and LODA hashes were
// recorded before the in-place iForest kernel and the bitmap sampler, the
// kNN-family and exact ABOD hashes before the shared block kNN kernel;
// neither change may move them. A change that is meant to move scores
// updates them and says why.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "detect/exact_abod.h"
#include "detect/fast_abod.h"
#include "detect/isolation_forest.h"
#include "detect/knn_distance.h"
#include "detect/loda.h"
#include "detect/lof.h"

namespace subex {
namespace {

// n points over 6 features: 0-2 continuous, 3 rounded to 8 levels (ties),
// 4 a copy of feature 0 on the first half (duplicate values), 5 constant.
Dataset FingerprintData(int n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, 6);
  for (int p = 0; p < n; ++p) {
    m(p, 0) = rng.Uniform();
    m(p, 1) = rng.Gaussian(0.5, 0.1);
    m(p, 2) = rng.Uniform() * rng.Uniform();
    m(p, 3) = static_cast<double>(rng.UniformInt(0, 7)) / 7.0;
    m(p, 4) = p < n / 2 ? m(p, 0) : rng.Uniform();
    m(p, 5) = 0.25;
  }
  // A few gross outliers so the trees have something to isolate.
  m(n - 1, 0) = 3.0;
  m(n - 2, 1) = -2.0;
  m(n - 3, 2) = 4.0;
  return Dataset(std::move(m));
}

// 1-4d subspaces (including the constant and the tied feature on their own)
// plus the full space.
std::vector<Subspace> FingerprintSubspaces() {
  return {Subspace({0}),       Subspace({3}),          Subspace({5}),
          Subspace({0, 3}),    Subspace({1, 5}),       Subspace({0, 2, 4}),
          Subspace({1, 3, 5}), Subspace({0, 1, 2, 3}), Subspace()};
}

// FNV-1a over the bit patterns of every score of every subspace of a
// 300-point (n > psi) and a 120-point (n < psi) dataset.
std::uint64_t Fingerprint(const Detector& detector) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const Dataset& data :
       {FingerprintData(300, 5), FingerprintData(120, 6)}) {
    for (const Subspace& subspace : FingerprintSubspaces()) {
      for (double score : detector.Score(data, subspace)) {
        std::uint64_t bits = std::bit_cast<std::uint64_t>(score);
        for (int byte = 0; byte < 8; ++byte) {
          hash ^= bits & 0xff;
          hash *= 0x100000001b3ull;
          bits >>= 8;
        }
      }
    }
  }
  return hash;
}

IsolationForest::Options ForestOptions(int trees, int repetitions) {
  IsolationForest::Options options;
  options.num_trees = trees;
  options.num_repetitions = repetitions;
  options.seed = 7;
  return options;
}

TEST(ScoreFingerprint, IsolationForestPaperSettings) {
  const IsolationForest forest(ForestOptions(100, 10));
  EXPECT_EQ(Fingerprint(forest), 0x585c2543e83ff181ull);
}

TEST(ScoreFingerprint, IsolationForestQuickProfile) {
  const IsolationForest forest(ForestOptions(50, 2));
  EXPECT_EQ(Fingerprint(forest), 0x49f95cf0e20e870dull);
}

TEST(ScoreFingerprint, Loda) {
  Loda::Options options;
  options.seed = 7;
  EXPECT_EQ(Fingerprint(Loda(options)), 0xdef43c796392b064ull);
}

TEST(ScoreFingerprint, Lof) {
  EXPECT_EQ(Fingerprint(Lof(15)), 0x06bbd6f3cad3d624ull);
}

TEST(ScoreFingerprint, FastAbod) {
  EXPECT_EQ(Fingerprint(FastAbod(10)), 0x790489dd1b77bb1dull);
}

TEST(ScoreFingerprint, KnnDistanceMax) {
  EXPECT_EQ(Fingerprint(KnnDistance(10, KnnDistance::Aggregation::kMax)),
            0x9a2bd20023a83eacull);
}

TEST(ScoreFingerprint, KnnDistanceMean) {
  EXPECT_EQ(Fingerprint(KnnDistance(10, KnnDistance::Aggregation::kMean)),
            0xf2ba13f30f0c36d7ull);
}

TEST(ScoreFingerprint, ExactAbod) {
  EXPECT_EQ(Fingerprint(ExactAbod()), 0x7e0c3dc77715c8f1ull);
}

// `Detector` promises that concurrent `Score` calls are safe and agree:
// four threads score one subspace at once and must match a serial call
// bit for bit.
void ExpectConcurrentScoresMatchSerial(const Detector& detector) {
  const Dataset data = FingerprintData(300, 9);
  const Subspace subspace({0, 2, 3});
  const std::vector<double> serial = detector.Score(data, subspace);
  std::vector<std::vector<double>> results(4);
  std::vector<std::thread> threads;
  for (std::vector<double>& result : results) {
    threads.emplace_back(
        [&, out = &result] { *out = detector.Score(data, subspace); });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::vector<double>& result : results) {
    ASSERT_EQ(result.size(), serial.size());
    for (std::size_t p = 0; p < serial.size(); ++p) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result[p]),
                std::bit_cast<std::uint64_t>(serial[p]))
          << detector.name() << " point " << p;
    }
  }
}

TEST(DetectorConcurrency, IsolationForestThreadsMatchSerial) {
  ExpectConcurrentScoresMatchSerial(IsolationForest(ForestOptions(50, 2)));
}

TEST(DetectorConcurrency, LofThreadsMatchSerial) {
  ExpectConcurrentScoresMatchSerial(Lof(15));
}

TEST(DetectorConcurrency, FastAbodThreadsMatchSerial) {
  ExpectConcurrentScoresMatchSerial(FastAbod(10));
}

TEST(DetectorConcurrency, KnnDistanceThreadsMatchSerial) {
  ExpectConcurrentScoresMatchSerial(
      KnnDistance(10, KnnDistance::Aggregation::kMean));
}

}  // namespace
}  // namespace subex
