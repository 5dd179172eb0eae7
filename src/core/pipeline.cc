#include "core/pipeline.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/rng.h"
#include "core/metrics.h"
#include "obs/registry.h"

namespace subex {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<int> SelectPoints(const GroundTruth& ground_truth, int dim,
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

/// The aggregate + per-algorithm histogram pair every pipeline stage feeds,
/// e.g. (`explain.search`, `explain.search.Beam`).
struct StageHistograms {
  StageHistograms(const std::string& stage, const std::string& algorithm)
      : aggregate(&MetricsRegistry::Global().GetHistogram(stage)),
        per_algorithm(
            &MetricsRegistry::Global().GetHistogram(stage + "." + algorithm)) {
  }

  void Record(std::uint64_t ns) {
    aggregate->Record(ns);
    per_algorithm->Record(ns);
  }

  Histogram* aggregate;
  Histogram* per_algorithm;
};

}  // namespace

PipelineResult RunPointExplanationPipeline(
    ScoringService& service, const GroundTruth& ground_truth,
    const PointExplainer& explainer, int explanation_dim,
    const PipelineOptions& options) {
  const Dataset& data = service.data();
  const CachingDetector detector(service);

  PipelineResult result;
  result.detector_name = detector.name();
  result.explainer_name = explainer.name();
  result.explanation_dim = explanation_dim;

  const GroundTruth at_dim = ground_truth.FilterByDimension(explanation_dim);
  const std::vector<int> points =
      SelectPoints(ground_truth, explanation_dim, options);

  // Explain concurrently (explainers are deterministic per point and must
  // not mutate shared state), then score sequentially in point order so the
  // result does not depend on the pool.
  std::vector<RankedSubspaces> ranked(points.size());
  StageHistograms search("explain.search", explainer.name());
  const auto start = Clock::now();
  auto explain_one = [&](std::size_t i) {
    const auto point_start = Clock::now();
    ranked[i] = explainer.Explain(data, detector, points[i], explanation_dim);
    search.Record(
        static_cast<std::uint64_t>(SecondsSince(point_start) * 1e9));
  };
  ThreadPool* pool = service.pool();
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(points.size(), explain_one);
  } else {
    for (std::size_t i = 0; i < points.size(); ++i) explain_one(i);
  }
  result.seconds = SecondsSince(start);

  ExplanationScorer scorer;
  for (std::size_t i = 0; i < points.size(); ++i) {
    scorer.AddPoint(ranked[i].subspaces, at_dim.RelevantFor(points[i]));
  }
  result.map = scorer.MeanAveragePrecision();
  result.mean_recall = scorer.MeanRecall();
  result.num_points = scorer.num_points();
  return result;
}

PipelineResult RunSummarizationPipeline(
    ScoringService& service, const GroundTruth& ground_truth,
    const Summarizer& summarizer, int explanation_dim,
    const PipelineOptions& options) {
  const Dataset& data = service.data();
  const CachingDetector detector(service);

  PipelineResult result;
  result.detector_name = detector.name();
  result.explainer_name = summarizer.name();
  result.explanation_dim = explanation_dim;

  // The summarizer receives the full point-of-interest set (Figure 7);
  // evaluation happens only on the points explained at this dimensionality.
  const std::vector<int>& all_points = data.outlier_indices();
  SUBEX_CHECK_MSG(!all_points.empty(), "dataset has no points of interest");

  StageHistograms search("explain.summarize", summarizer.name());
  const auto start = Clock::now();
  const RankedSubspaces summary =
      summarizer.Summarize(data, detector, all_points, explanation_dim);
  result.seconds = SecondsSince(start);
  search.Record(static_cast<std::uint64_t>(result.seconds * 1e9));

  const GroundTruth at_dim = ground_truth.FilterByDimension(explanation_dim);
  const std::vector<int> points = SelectPoints(ground_truth, explanation_dim,
                                               options);
  ExplanationScorer scorer;
  for (int p : points) {
    scorer.AddPoint(summary.subspaces, at_dim.RelevantFor(p));
  }
  result.map = scorer.MeanAveragePrecision();
  result.mean_recall = scorer.MeanRecall();
  result.num_points = scorer.num_points();
  return result;
}

}  // namespace subex
