#include "core/ground_truth_builder.h"

#include <algorithm>
#include <limits>
#include <span>

#include "common/check.h"
#include "common/thread_pool.h"
#include "detect/detector.h"
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

  // Chunked so the kept rows stay small — exhaustive sweeps reach tens of
  // thousands of candidates on the 30d datasets.
  constexpr std::size_t kChunk = 512;

  const CachingDetector cached(service);
  const ThreadPool::Scope scope(service.pool());
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

    // Candidates score in parallel, keeping only the outliers' rows; the
    // reduce then walks them in candidate order, so ties keep the lowest
    // index whatever order the pool finished them in.
    std::vector<double> rows(kChunk * outliers.size());
    for (std::size_t begin = 0; begin < candidates.size(); begin += kChunk) {
      const std::size_t end = std::min(begin + kChunk, candidates.size());
      ScoreStandardizedEach(
          cached, data,
          std::span<const Subspace>(candidates.data() + begin, end - begin),
          [&](std::size_t j, const std::vector<double>& scores) {
            for (std::size_t i = 0; i < outliers.size(); ++i) {
              rows[j * outliers.size() + i] = scores[outliers[i]];
            }
          });
      for (std::size_t j = 0; j < end - begin; ++j) {
        for (std::size_t i = 0; i < outliers.size(); ++i) {
          const double s = rows[j * outliers.size() + i];
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
