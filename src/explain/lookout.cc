#include "explain/lookout.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "subspace/enumeration.h"

namespace subex {

LookOut::LookOut(const Options& options) : options_(options) {
  SUBEX_CHECK(options.budget >= 1);
}

RankedSubspaces LookOut::Summarize(const Dataset& data,
                                   const Detector& detector,
                                   const std::vector<int>& points,
                                   int target_dim) const {
  const int d = static_cast<int>(data.num_features());
  SUBEX_CHECK(target_dim >= 1 && target_dim <= d);
  SUBEX_CHECK(!points.empty());

  // Candidate enumeration (exhaustive unless capped).
  std::vector<Subspace> candidates;
  const std::uint64_t total = CombinationCount(d, target_dim);
  if (options_.max_candidates > 0 && total > options_.max_candidates) {
    Rng rng(options_.seed);
    candidates = SampleRandomSubspaces(
        d, target_dim, static_cast<int>(options_.max_candidates), rng);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
  } else {
    candidates = EnumerateSubspaces(d, target_dim);
  }

  // Score matrix: outlier-point x candidate, z-standardized per candidate
  // subspace and clamped at 0 (a point a subspace does not flag contributes
  // no utility). Only the points' rows of each score vector are kept.
  const std::size_t num_points = points.size();
  const std::size_t num_candidates = candidates.size();
  std::vector<double> gains(num_points * num_candidates);
  ScoreStandardizedEach(
      detector, data, candidates,
      [&](std::size_t j, const std::vector<double>& scores) {
        for (std::size_t i = 0; i < num_points; ++i) {
          gains[i * num_candidates + j] = std::max(0.0, scores[points[i]]);
        }
      });

  // Greedy submodular maximization of f(S) = sum_i max_{j in S} score_ij.
  std::vector<double> best_so_far(num_points, 0.0);
  std::vector<bool> selected(num_candidates, false);
  RankedSubspaces result;
  const int budget =
      std::min(options_.budget, static_cast<int>(num_candidates));
  for (int step = 0; step < budget; ++step) {
    double best_gain = -1.0;
    std::size_t best_j = num_candidates;
    for (std::size_t j = 0; j < num_candidates; ++j) {
      if (selected[j]) continue;
      double gain = 0.0;
      for (std::size_t i = 0; i < num_points; ++i) {
        const double s = gains[i * num_candidates + j];
        if (s > best_so_far[i]) gain += s - best_so_far[i];
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_j = j;
      }
    }
    if (best_j == num_candidates) break;
    selected[best_j] = true;
    for (std::size_t i = 0; i < num_points; ++i) {
      best_so_far[i] =
          std::max(best_so_far[i], gains[i * num_candidates + best_j]);
    }
    result.Add(candidates[best_j], best_gain);
    // Zero marginal gain for every remaining candidate: the summary is
    // saturated; selecting more subspaces would be arbitrary.
    if (best_gain <= 0.0) break;
  }
  return result;
}

}  // namespace subex
