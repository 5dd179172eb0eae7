#include "detect/chunked_score.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "data/columnar.h"
#include "data/csv.h"
#include "data/generators.h"
#include "detect/knn_distance.h"
#include "detect/loda.h"
#include "detect/lof.h"
#include "mem/eviction_manager.h"

namespace subex {
namespace {

// Per-process unique paths: ctest runs tests of this suite in parallel
// *processes*, and two of them rewriting one file under an active mmap is
// a SIGBUS.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "subex_chunked_" +
         std::to_string(::getpid()) + "_" + name;
}

/// One fixture dataset on disk + in RAM: a generated mixture with labelled
/// outliers, written columnar with small chunks so every scorer crosses
/// many chunk boundaries.
class ChunkedScoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HicsGeneratorConfig config;
    config.num_points = 412;
    config.subspace_dims = {3, 2};  // 5 features total.
    config.outliers_per_subspace = 6;
    config.seed = 7;
    dataset_ = GenerateHicsDataset(config).dataset;
    path_ = TempPath("fixture.cols");
    std::string error;
    ASSERT_TRUE(WriteColumnarDataset(path_, dataset_, /*rows_per_chunk=*/64,
                                     &error))
        << error;
  }

  /// Opens the columnar file under a fresh manager with `budget_bytes`.
  ChunkedDataset::OpenResult OpenChunked(EvictionManager* manager) {
    ChunkedDatasetOptions options;
    options.manager = manager;
    return ChunkedDataset::Open(path_, options);
  }

  Dataset dataset_;
  std::string path_;
};

TEST_F(ChunkedScoreTest, KnnDistanceMatchesInRamBitwise) {
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 16 << 20});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  const Subspace subspace({0, 2, 3});
  for (const auto aggregation : {KnnDistance::Aggregation::kMax,
                                 KnnDistance::Aggregation::kMean}) {
    const std::vector<double> in_ram =
        KnnDistance(10, aggregation).Score(dataset_, subspace);
    const std::vector<double> streamed = ScoreKnnDistanceChunked(
        *open.dataset, subspace, 10, aggregation);
    ASSERT_EQ(streamed.size(), in_ram.size());
    for (std::size_t p = 0; p < in_ram.size(); ++p) {
      EXPECT_EQ(streamed[p], in_ram[p]) << "point " << p;
    }
  }
}

TEST_F(ChunkedScoreTest, KnnDistanceQuerySubsetMatchesInRam) {
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 16 << 20});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  const Subspace subspace({1, 4});
  const std::vector<double> in_ram =
      KnnDistance(5, KnnDistance::Aggregation::kMean).Score(dataset_, subspace);
  // The points of interest are the natural query set at scale.
  const std::vector<int>& queries = open.dataset->outlier_indices();
  ASSERT_FALSE(queries.empty());
  const std::vector<double> streamed = ScoreKnnDistanceChunked(
      *open.dataset, subspace, 5, KnnDistance::Aggregation::kMean, queries);
  ASSERT_EQ(streamed.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(streamed[i], in_ram[queries[i]]) << "query " << queries[i];
  }
}

TEST_F(ChunkedScoreTest, LofMatchesInRamBitwise) {
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 16 << 20});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  const Subspace subspace({0, 1, 2});
  const std::vector<double> in_ram = Lof(8).Score(dataset_, subspace);
  const std::vector<double> streamed =
      ScoreLofChunked(*open.dataset, subspace, 8);
  ASSERT_EQ(streamed.size(), in_ram.size());
  for (std::size_t p = 0; p < in_ram.size(); ++p) {
    EXPECT_EQ(streamed[p], in_ram[p]) << "point " << p;
  }
}

TEST_F(ChunkedScoreTest, LofQuerySubsetMatchesInRam) {
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 16 << 20});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  const Subspace subspace({0, 3});
  const std::vector<double> in_ram = Lof(6).Score(dataset_, subspace);
  const std::vector<int>& queries = open.dataset->outlier_indices();
  const std::vector<double> streamed =
      ScoreLofChunked(*open.dataset, subspace, 6, queries);
  ASSERT_EQ(streamed.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(streamed[i], in_ram[queries[i]]) << "query " << queries[i];
  }
}

TEST_F(ChunkedScoreTest, LodaMatchesInRamBitwise) {
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 16 << 20});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  Loda::Options options;
  options.num_projections = 25;
  options.seed = 1234;
  const Subspace subspace({0, 1, 2, 3, 4});
  const std::vector<double> in_ram = Loda(options).Score(dataset_, subspace);
  const std::vector<double> streamed =
      ScoreLodaChunked(*open.dataset, subspace, options);
  ASSERT_EQ(streamed.size(), in_ram.size());
  for (std::size_t p = 0; p < in_ram.size(); ++p) {
    EXPECT_EQ(streamed[p], in_ram[p]) << "point " << p;
  }
}

TEST_F(ChunkedScoreTest, EmptySubspaceMeansFullSpaceLikeDetectors) {
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 16 << 20});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  const Subspace empty;
  const std::vector<double> in_ram =
      KnnDistance(4, KnnDistance::Aggregation::kMax).Score(dataset_, empty);
  const std::vector<double> streamed = ScoreKnnDistanceChunked(
      *open.dataset, empty, 4, KnnDistance::Aggregation::kMax);
  ASSERT_EQ(streamed.size(), in_ram.size());
  for (std::size_t p = 0; p < in_ram.size(); ++p) {
    EXPECT_EQ(streamed[p], in_ram[p]);
  }
}

TEST_F(ChunkedScoreTest, TinyBudgetForcesEvictionMidScoringYetScoresMatch) {
  // A budget of roughly two chunks (64 rows x 8 B = 512 B each) forces the
  // scorers to evict and reload chunks constantly; scores must not change.
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 2 << 10});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  const Subspace subspace({0, 1, 2});
  const std::vector<double> in_ram =
      KnnDistance(10, KnnDistance::Aggregation::kMean).Score(dataset_, subspace);
  const std::vector<double> streamed = ScoreKnnDistanceChunked(
      *open.dataset, subspace, 10, KnnDistance::Aggregation::kMean);
  for (std::size_t p = 0; p < in_ram.size(); ++p) {
    EXPECT_EQ(streamed[p], in_ram[p]);
  }
  const ChunkedDatasetStats stats = open.dataset->stats();
  EXPECT_GT(stats.evictions, 0u);
  // Working set = 3 pinned chunks (~1.5 KB) stays near the 2 KB budget even
  // though every chunk of the dataset streams through it.
  EXPECT_LE(manager.used_bytes(), manager.budget_bytes() + 3 * 512);

  const std::vector<double> loda_in_ram = Loda().Score(dataset_, subspace);
  const std::vector<double> loda_streamed =
      ScoreLodaChunked(*open.dataset, subspace, Loda::Options{});
  for (std::size_t p = 0; p < loda_in_ram.size(); ++p) {
    EXPECT_EQ(loda_streamed[p], loda_in_ram[p]);
  }
}

/// n points over 6 features with the shapes that stress tie-breaks: 0-2
/// continuous, 3 rounded to 8 levels (ties), 4 a copy of feature 0 on the
/// first half (duplicated values), 5 constant.
Dataset HardData(int n, std::uint64_t seed) {
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
  return Dataset(std::move(m));
}

constexpr int kHardK = 10;

/// Chunked vs in-RAM on hard inputs: a 300-point file plus the smallest
/// legal ones, n = k + 1 (every other point is a neighbor) and n = 3 (k
/// clamps to 2). Small chunks put chunk boundaries inside every list.
class ChunkedScoreHardInputsTest : public ::testing::Test {
 protected:
  struct File {
    Dataset dataset;
    std::string path;
  };

  void SetUp() override {
    const std::pair<int, std::size_t> shapes[] = {
        {300, 7}, {kHardK + 1, 4}, {3, 2}};
    for (const auto& [n, rows_per_chunk] : shapes) {
      File file{HardData(n, 17 + n),
                TempPath("hard_" + std::to_string(n) + ".cols")};
      std::string error;
      ASSERT_TRUE(WriteColumnarDataset(file.path, file.dataset,
                                       rows_per_chunk, &error))
          << error;
      files_.push_back(std::move(file));
    }
  }

  static std::vector<Subspace> Subspaces() {
    return {Subspace({0}),    Subspace({3}),       Subspace({5}),
            Subspace({0, 3}), Subspace({1, 5}),    Subspace({0, 2, 4}),
            Subspace({3, 5}), Subspace()};
  }

  /// Opens `file` under a 1 MB budget and runs `check` on it.
  template <typename Check>
  void ForEachFile(Check check) {
    for (const File& file : files_) {
      EvictionManager manager(
          EvictionManager::Options{.budget_bytes = 1 << 20});
      ChunkedDatasetOptions options;
      options.manager = &manager;
      auto open = ChunkedDataset::Open(file.path, options);
      ASSERT_TRUE(open.ok) << open.error;
      for (const Subspace& subspace : Subspaces()) {
        SCOPED_TRACE("n=" + std::to_string(file.dataset.num_points()) +
                     " subspace " + subspace.ToString());
        check(file.dataset, *open.dataset, subspace);
      }
    }
  }

  std::vector<File> files_;
};

TEST_F(ChunkedScoreHardInputsTest, KnnDistanceBothAggregations) {
  ForEachFile([](const Dataset& in_ram, ChunkedDataset& chunked,
                 const Subspace& subspace) {
    for (const auto aggregation : {KnnDistance::Aggregation::kMax,
                                   KnnDistance::Aggregation::kMean}) {
      EXPECT_EQ(ScoreKnnDistanceChunked(chunked, subspace, kHardK,
                                        aggregation),
                KnnDistance(kHardK, aggregation).Score(in_ram, subspace));
    }
  });
}

TEST_F(ChunkedScoreHardInputsTest, LofAllPoints) {
  ForEachFile([](const Dataset& in_ram, ChunkedDataset& chunked,
                 const Subspace& subspace) {
    EXPECT_EQ(ScoreLofChunked(chunked, subspace, kHardK),
              Lof(kHardK).Score(in_ram, subspace));
  });
}

TEST_F(ChunkedScoreHardInputsTest, LofQuerySubsetWithRepeatedId) {
  ForEachFile([](const Dataset& in_ram, ChunkedDataset& chunked,
                 const Subspace& subspace) {
    const int n = static_cast<int>(in_ram.num_points());
    const std::vector<int> queries = {n - 1, 0, n - 1, n / 2};
    const std::vector<double> expected = Lof(kHardK).Score(in_ram, subspace);
    const std::vector<double> streamed =
        ScoreLofChunked(chunked, subspace, kHardK, queries);
    ASSERT_EQ(streamed.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(streamed[i], expected[queries[i]]) << "query " << queries[i];
    }
  });
}

TEST_F(ChunkedScoreHardInputsTest, Loda) {
  Loda::Options options;
  options.num_projections = 20;
  options.seed = 5;
  ForEachFile([&options](const Dataset& in_ram, ChunkedDataset& chunked,
                         const Subspace& subspace) {
    EXPECT_EQ(ScoreLodaChunked(chunked, subspace, options),
              Loda(options).Score(in_ram, subspace));
  });
}

}  // namespace
}  // namespace subex
