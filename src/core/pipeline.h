#ifndef SUBEX_CORE_PIPELINE_H_
#define SUBEX_CORE_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/ground_truth.h"
#include "explain/point_explainer.h"
#include "explain/summarizer.h"
#include "serve/scoring_service.h"

namespace subex {

/// Outcome of one (detector, explainer, explanation dimensionality) cell of
/// the evaluation grid — one point of a Figure 9/10 curve plus the runtime
/// of Figure 11.
struct PipelineResult {
  std::string detector_name;
  std::string explainer_name;
  int explanation_dim = 0;
  /// Mean Average Precision (Eq. 3) over the evaluated points.
  double map = 0.0;
  /// Mean Recall over the evaluated points.
  double mean_recall = 0.0;
  /// Points explained at this dimensionality that were evaluated.
  int num_points = 0;
  /// Wall-clock seconds of explanation (ground truth & setup excluded).
  double seconds = 0.0;
};

/// Evaluation protocol knobs shared by both pipelines.
struct PipelineOptions {
  /// Cap on the number of points to explain (point pipelines only):
  /// 0 = explain every point the ground truth explains at the requested
  /// dimensionality (the paper's protocol); >0 subsamples deterministically
  /// for quick benchmark profiles.
  int max_points = 0;
  std::uint64_t subsample_seed = 17;
};

/// Runs a point-explanation pipeline (Figure 7, top path): for every point
/// the ground truth explains at `explanation_dim`, asks `explainer` for
/// fixed-dimensionality subspaces through `service` and scores them against
/// the ground truth restricted to that dimensionality.
///
/// With a multi-worker pool on `service` the points are explained
/// concurrently (single-flight deduplicates their overlapping subspace
/// requests); scoring stays in point order, so the result does not depend
/// on the pool. A service built with `enable_cache = false` and no pool
/// computes every subspace afresh on the calling thread: the plain serial
/// run whose `seconds` compare across explainers.
PipelineResult RunPointExplanationPipeline(
    ScoringService& service, const GroundTruth& ground_truth,
    const PointExplainer& explainer, int explanation_dim,
    const PipelineOptions& options = {});

/// Runs a summarization pipeline (Figure 7, bottom path): hands the *full*
/// point-of-interest set to `summarizer` once, then scores the returned
/// summary against each point explained at `explanation_dim`. Use a
/// service with `enable_cache = false` for an uncached run.
PipelineResult RunSummarizationPipeline(
    ScoringService& service, const GroundTruth& ground_truth,
    const Summarizer& summarizer, int explanation_dim,
    const PipelineOptions& options = {});

}  // namespace subex

#endif  // SUBEX_CORE_PIPELINE_H_
