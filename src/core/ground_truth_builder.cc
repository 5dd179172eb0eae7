#include "core/ground_truth_builder.h"

#include <algorithm>
#include <limits>
#include <span>

#include "common/check.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "subspace/enumeration.h"

namespace subex {

GroundTruth BuildGroundTruthByExhaustiveSearch(
    ScoringService& service, const GroundTruthBuilderOptions& options) {
  const Dataset& data = service.data();
  SUBEX_CHECK(options.min_dim >= 1);
  SUBEX_CHECK(options.max_dim >= options.min_dim);
  SUBEX_CHECK(static_cast<std::size_t>(options.max_dim) <=
              data.num_features());
  const std::vector<int>& outliers = data.outlier_indices();
  SUBEX_CHECK_MSG(!outliers.empty(), "dataset has no points of interest");

  // Chunked so at most kChunk score vectors are pinned at once — exhaustive
  // sweeps reach tens of thousands of candidates on the 30d datasets.
  constexpr std::size_t kChunk = 512;

  Histogram& sweep_histogram =
      MetricsRegistry::Global().GetHistogram("gt.search");
  GroundTruth ground_truth;
  const int d = static_cast<int>(data.num_features());
  for (int dim = options.min_dim; dim <= options.max_dim; ++dim) {
    // One span per dimension sweep, attached to any ambient trace.
    TraceSpan sweep(&sweep_histogram, nullptr, "gt.search");
    const std::vector<Subspace> candidates = EnumerateSubspaces(d, dim);
    std::vector<double> best_score(
        outliers.size(), -std::numeric_limits<double>::infinity());
    std::vector<int> best_subspace(outliers.size(), -1);

    for (std::size_t begin = 0; begin < candidates.size(); begin += kChunk) {
      const std::size_t end = std::min(begin + kChunk, candidates.size());
      const std::vector<ScoreVectorPtr> scores = service.ScoreMany(
          std::span<const Subspace>(candidates.data() + begin, end - begin));
      for (std::size_t j = 0; j < scores.size(); ++j) {
        for (std::size_t i = 0; i < outliers.size(); ++i) {
          const double s = (*scores[j])[outliers[i]];
          if (s > best_score[i]) {
            best_score[i] = s;
            best_subspace[i] = static_cast<int>(begin + j);
          }
        }
      }
    }

    for (std::size_t i = 0; i < outliers.size(); ++i) {
      if (best_subspace[i] >= 0) {
        ground_truth.Add(outliers[i], candidates[best_subspace[i]]);
      }
    }
  }
  return ground_truth;
}

}  // namespace subex
