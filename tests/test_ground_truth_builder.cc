#include "core/ground_truth_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>

#include "common/rng.h"
#include "data/generators.h"
#include "detect/lof.h"
#include "subspace/enumeration.h"

namespace subex {
namespace {

/// Ground truth of the exhaustive search without a service in between:
/// every candidate of `EnumerateSubspaces` order scored directly, and the
/// first strictly highest standardized score kept per outlier.
GroundTruth BruteForceGroundTruth(const Dataset& data, const Detector& detector,
                                  const GroundTruthBuilderOptions& options) {
  GroundTruth ground_truth;
  const int d = static_cast<int>(data.num_features());
  for (int dim = options.min_dim; dim <= options.max_dim; ++dim) {
    const std::vector<Subspace> candidates = EnumerateSubspaces(d, dim);
    for (int p : data.outlier_indices()) {
      double best = -std::numeric_limits<double>::infinity();
      const Subspace* best_subspace = nullptr;
      for (const Subspace& candidate : candidates) {
        const double s = ScoreStandardized(detector, data, candidate)[p];
        if (s > best) {
          best = s;
          best_subspace = &candidate;
        }
      }
      if (best_subspace != nullptr) ground_truth.Add(p, *best_subspace);
    }
  }
  return ground_truth;
}

SyntheticDataset SmallFullSpace() {
  FullSpaceGeneratorConfig config;
  config.num_points = 60;
  config.num_features = 6;
  config.num_outliers = 6;
  config.seed = 3;
  return GenerateFullSpaceDataset(config);
}

TEST(GroundTruthBuilderTest, FindsThePlantedSubspaceOfFigure1) {
  const SyntheticDataset d = GenerateFigure1Dataset(1, 200);
  const Lof lof(15);
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  GroundTruthBuilderOptions options;
  options.min_dim = 2;
  options.max_dim = 2;
  const GroundTruth gt = BuildGroundTruthByExhaustiveSearch(service, options);
  // o1's best 2d subspace is the planted {0,1}.
  ASSERT_EQ(gt.RelevantFor(0).size(), 1u);
  EXPECT_EQ(gt.RelevantFor(0).front(), Subspace({0, 1}));
}

TEST(GroundTruthBuilderTest, OneSubspacePerOutlierPerDimension) {
  FullSpaceGeneratorConfig config;
  config.num_points = 80;
  config.num_features = 6;
  config.num_outliers = 8;
  config.seed = 2;
  const SyntheticDataset d = GenerateFullSpaceDataset(config);
  const Lof lof(15);
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  GroundTruthBuilderOptions options;
  options.min_dim = 2;
  options.max_dim = 4;
  const GroundTruth gt = BuildGroundTruthByExhaustiveSearch(service, options);
  for (int p : d.dataset.outlier_indices()) {
    const auto& rel = gt.RelevantFor(p);
    ASSERT_EQ(rel.size(), 3u) << "expected one subspace per dim 2..4";
    std::vector<std::size_t> dims;
    for (const Subspace& s : rel) dims.push_back(s.size());
    std::sort(dims.begin(), dims.end());
    EXPECT_EQ(dims, (std::vector<std::size_t>{2, 3, 4}));
  }
}

TEST(GroundTruthBuilderTest, ParallelMatchesSequential) {
  const SyntheticDataset d = SmallFullSpace();
  const Lof lof(15);
  GroundTruthBuilderOptions options;
  options.min_dim = 2;
  options.max_dim = 3;
  ScoringService serial(lof, d.dataset, {.enable_cache = false, .cache = {}});
  const GroundTruth seq = BuildGroundTruthByExhaustiveSearch(serial, options);
  ThreadPool pool(4);
  ScoringService pooled(lof, d.dataset,
                        {.enable_cache = false, .cache = {}}, &pool);
  const GroundTruth par = BuildGroundTruthByExhaustiveSearch(pooled, options);
  for (int p : d.dataset.outlier_indices()) {
    EXPECT_EQ(seq.RelevantFor(p), par.RelevantFor(p));
  }
}

// The search must pick what a direct scan over every candidate picks,
// whether the service fans the sweep out on a pool and caches the vectors
// or scores each candidate serially without a cache.
TEST(GroundTruthBuilderTest, ServicesMatchBruteForceSearch) {
  const SyntheticDataset d = SmallFullSpace();
  const Lof lof(15);
  GroundTruthBuilderOptions options;
  options.min_dim = 2;
  options.max_dim = 3;
  const GroundTruth reference = BruteForceGroundTruth(d.dataset, lof, options);

  ThreadPool pool(3);
  ScoringService pooled_cached(lof, d.dataset, {}, &pool);
  ScoringService serial_uncached(lof, d.dataset,
                                 {.enable_cache = false, .cache = {}});
  const GroundTruth pooled =
      BuildGroundTruthByExhaustiveSearch(pooled_cached, options);
  const GroundTruth serial =
      BuildGroundTruthByExhaustiveSearch(serial_uncached, options);
  for (int p : d.dataset.outlier_indices()) {
    ASSERT_EQ(reference.RelevantFor(p).size(), 2u);
    EXPECT_EQ(pooled.RelevantFor(p), reference.RelevantFor(p));
    EXPECT_EQ(serial.RelevantFor(p), reference.RelevantFor(p));
  }
}

// Column 1 is a bitwise copy of column 0, so {f0,f2} and {f1,f2} are the
// same 2d projection and score exactly alike. The outlier stands out only
// there; the search must return the lower candidate index, {f0,f2}, on any
// pool.
TEST(GroundTruthBuilderTest, TieGoesToLowestCandidateIndex) {
  constexpr int kPoints = 60;
  Matrix m(kPoints, 3);
  Rng rng(5);
  for (int i = 0; i < kPoints; ++i) {
    // Inliers lie on the diagonal f0 == f2 with a small jitter; each
    // marginal spans [0, 1], so the outlier's values are ordinary there.
    const double t = rng.Uniform();
    m(i, 0) = t;
    m(i, 2) = t + 0.01 * (rng.Uniform() - 0.5);
  }
  m(0, 0) = 0.2;
  m(0, 2) = 0.8;  // Far off the diagonal in {f0,f2} only.
  for (int i = 0; i < kPoints; ++i) m(i, 1) = m(i, 0);
  const Dataset data(std::move(m), {0});
  const Lof lof(10);
  ASSERT_EQ(ScoreStandardized(lof, data, Subspace({0, 2})),
            ScoreStandardized(lof, data, Subspace({1, 2})));

  GroundTruthBuilderOptions options;
  options.min_dim = 2;
  options.max_dim = 2;
  ScoringService serial(lof, data, {.enable_cache = false, .cache = {}});
  ThreadPool pool(4);
  ScoringService pooled(lof, data, {.enable_cache = false, .cache = {}}, &pool);
  for (ScoringService* service : {&serial, &pooled}) {
    const GroundTruth gt = BuildGroundTruthByExhaustiveSearch(*service,
                                                              options);
    ASSERT_EQ(gt.RelevantFor(0).size(), 1u);
    EXPECT_EQ(gt.RelevantFor(0).front(), Subspace({0, 2}));
  }
}

TEST(GroundTruthBuilderTest, BestSubspaceMaximizesStandardizedScore) {
  const SyntheticDataset d = GenerateFigure1Dataset(4, 150);
  const Lof lof(15);
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  GroundTruthBuilderOptions options;
  options.min_dim = 2;
  options.max_dim = 2;
  const GroundTruth gt = BuildGroundTruthByExhaustiveSearch(service, options);
  const int p = d.dataset.outlier_indices().front();
  const Subspace best = gt.RelevantFor(p).front();
  const double best_score = ScoreStandardized(lof, d.dataset, best)[p];
  for (const Subspace& other :
       {Subspace({0, 1}), Subspace({0, 2}), Subspace({1, 2})}) {
    EXPECT_GE(best_score, ScoreStandardized(lof, d.dataset, other)[p] - 1e-9);
  }
}

}  // namespace
}  // namespace subex
