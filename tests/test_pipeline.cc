#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/metrics.h"
#include "data/generators.h"
#include "detect/lof.h"
#include "explain/beam.h"
#include "explain/lookout.h"

namespace subex {
namespace {

SyntheticDataset SmallHics() {
  HicsGeneratorConfig config;
  config.num_points = 250;
  config.subspace_dims = {2, 2};
  config.seed = 77;
  return GenerateHicsDataset(config);
}

/// Imperfect explanations: MAP and recall differ from point to point, so a
/// wrong point selection or pairing changes the result.
SyntheticDataset HarderHics() {
  HicsGeneratorConfig config;
  config.num_points = 150;
  config.subspace_dims = {2, 3, 2, 3};
  config.seed = 77;
  return GenerateHicsDataset(config);
}

/// The points a pipeline evaluates, written out independently of
/// `pipeline.cc`: every point explained at `dim`, or a seeded shuffle of
/// them cut to `options.max_points` and re-sorted.
std::vector<int> ReferencePoints(const GroundTruth& ground_truth, int dim,
                                 const PipelineOptions& options) {
  std::vector<int> points = ground_truth.PointsExplainedAtDimension(dim);
  if (options.max_points > 0 &&
      static_cast<int>(points.size()) > options.max_points) {
    Rng rng(options.subsample_seed);
    rng.Shuffle(points);
    points.resize(options.max_points);
    std::sort(points.begin(), points.end());
  }
  return points;
}

TEST(PointPipelineTest, PerfectExplainerGivesMapOne) {
  const SyntheticDataset d = SmallHics();
  const Lof lof(15);
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  Beam::Options options;
  options.beam_width = 10;
  const Beam beam(options);
  const PipelineResult result =
      RunPointExplanationPipeline(service, d.ground_truth, beam, 2);
  EXPECT_EQ(result.detector_name, "LOF");
  EXPECT_EQ(result.explainer_name, "Beam");
  EXPECT_EQ(result.explanation_dim, 2);
  EXPECT_EQ(result.num_points, 10);  // 2 subspaces x 5 outliers.
  EXPECT_GT(result.map, 0.9);
  EXPECT_GT(result.mean_recall, 0.9);
  EXPECT_GT(result.seconds, 0.0);
}

TEST(PointPipelineTest, EvaluatesOnlyPointsExplainedAtDim) {
  const SyntheticDataset d = SmallHics();
  const Lof lof(15);
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  const Beam beam;
  // No ground-truth subspace has 3 dims -> nothing to evaluate.
  const PipelineResult result =
      RunPointExplanationPipeline(service, d.ground_truth, beam, 3);
  EXPECT_EQ(result.num_points, 0);
  EXPECT_EQ(result.map, 0.0);
}

TEST(PointPipelineTest, MaxPointsSubsamples) {
  const SyntheticDataset d = SmallHics();
  const Lof lof(15);
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  Beam::Options beam_options;
  beam_options.beam_width = 10;
  const Beam beam(beam_options);
  PipelineOptions options;
  options.max_points = 4;
  const PipelineResult result =
      RunPointExplanationPipeline(service, d.ground_truth, beam, 2, options);
  EXPECT_EQ(result.num_points, 4);
}

TEST(PointPipelineTest, SubsampleDeterministicPerSeed) {
  const SyntheticDataset d = SmallHics();
  const Lof lof(15);
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  Beam::Options beam_options;
  beam_options.beam_width = 5;
  const Beam beam(beam_options);
  PipelineOptions options;
  options.max_points = 3;
  const PipelineResult a =
      RunPointExplanationPipeline(service, d.ground_truth, beam, 2, options);
  const PipelineResult b =
      RunPointExplanationPipeline(service, d.ground_truth, beam, 2, options);
  EXPECT_EQ(a.map, b.map);
  EXPECT_EQ(a.mean_recall, b.mean_recall);
}

// A cached service on a multi-worker pool explains points concurrently and
// serves repeated subspaces from memory; the result must still be the
// bitwise MAP/recall of explaining each point with the bare detector.
TEST(PointPipelineTest, PooledCachedServiceMatchesInTestLoop) {
  const SyntheticDataset d = HarderHics();
  const Lof lof(15);
  Beam::Options beam_options;
  beam_options.beam_width = 3;
  const Beam beam(beam_options);
  PipelineOptions options;
  options.max_points = 7;

  ExplanationScorer reference;
  const GroundTruth at_dim = d.ground_truth.FilterByDimension(3);
  for (int p : ReferencePoints(d.ground_truth, 3, options)) {
    reference.AddPoint(beam.Explain(d.dataset, lof, p, 3).subspaces,
                       at_dim.RelevantFor(p));
  }
  ASSERT_GT(reference.MeanAveragePrecision(), 0.0);
  ASSERT_LT(reference.MeanAveragePrecision(), 1.0);

  ThreadPool pool(3);
  ScoringService service(lof, d.dataset, {}, &pool);
  const PipelineResult served =
      RunPointExplanationPipeline(service, d.ground_truth, beam, 3, options);
  EXPECT_EQ(served.map, reference.MeanAveragePrecision());
  EXPECT_EQ(served.mean_recall, reference.MeanRecall());
  EXPECT_EQ(served.num_points, reference.num_points());
  EXPECT_EQ(served.num_points, 7);
  EXPECT_EQ(served.detector_name, "LOF");
  EXPECT_GT(service.stats().HitRate(), 0.0)
      << "beam re-scores overlapping subspaces across points";
}

TEST(SummarizationPipelineTest, PerfectSummaryGivesMapOne) {
  const SyntheticDataset d = SmallHics();
  const Lof lof(15);
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  LookOut::Options options;
  options.budget = 10;
  const LookOut lookout(options);
  const PipelineResult result =
      RunSummarizationPipeline(service, d.ground_truth, lookout, 2);
  EXPECT_EQ(result.explainer_name, "LookOut");
  EXPECT_EQ(result.num_points, 10);
  // Both planted subspaces are selected in the first two greedy steps, so
  // every outlier sees its subspace within the top 2 -> MAP >= 0.5.
  EXPECT_GT(result.map, 0.5);
  EXPECT_GT(result.mean_recall, 0.9);
}

TEST(SummarizationPipelineTest, RuntimeCoversSummarizationOnly) {
  const SyntheticDataset d = SmallHics();
  const Lof lof(15);
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  const LookOut lookout;
  const PipelineResult result =
      RunSummarizationPipeline(service, d.ground_truth, lookout, 2);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_LT(result.seconds, 60.0);
}

// The summary is computed once over every point of interest and scored
// against each evaluated point; through a cached pooled service it must be
// the bitwise MAP/recall of summarizing with the bare detector.
TEST(SummarizationPipelineTest, PooledCachedServiceMatchesInTestLoop) {
  const SyntheticDataset d = HarderHics();
  const Lof lof(15);
  LookOut::Options lookout_options;
  lookout_options.budget = 3;
  const LookOut lookout(lookout_options);
  PipelineOptions options;
  options.max_points = 6;

  const RankedSubspaces summary =
      lookout.Summarize(d.dataset, lof, d.dataset.outlier_indices(), 3);
  ExplanationScorer reference;
  const GroundTruth at_dim = d.ground_truth.FilterByDimension(3);
  for (int p : ReferencePoints(d.ground_truth, 3, options)) {
    reference.AddPoint(summary.subspaces, at_dim.RelevantFor(p));
  }
  ASSERT_GT(reference.MeanAveragePrecision(), 0.0);
  ASSERT_LT(reference.MeanAveragePrecision(), 1.0);

  ThreadPool pool(3);
  ScoringService service(lof, d.dataset, {}, &pool);
  const PipelineResult served =
      RunSummarizationPipeline(service, d.ground_truth, lookout, 3, options);
  EXPECT_EQ(served.map, reference.MeanAveragePrecision());
  EXPECT_EQ(served.mean_recall, reference.MeanRecall());
  EXPECT_EQ(served.num_points, reference.num_points());
  EXPECT_EQ(served.num_points, 6);
  EXPECT_EQ(served.detector_name, "LOF");
}

}  // namespace
}  // namespace subex
