#include "explain/dimension_refinement.h"

#include <algorithm>

#include "common/check.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace subex {

double DimensionalGain(const Dataset& data, const Detector& detector,
                       int point, const Subspace& subspace) {
  SUBEX_CHECK(subspace.size() >= 2);
  // One batch: the full subspace, then each projection dropping one feature.
  std::vector<Subspace> batch{subspace};
  for (std::size_t k = 0; k < subspace.size(); ++k) {
    std::vector<FeatureId> reduced = subspace.features();
    reduced.erase(reduced.begin() + static_cast<std::ptrdiff_t>(k));
    batch.emplace_back(std::move(reduced));
  }
  std::vector<double> z(batch.size());
  ScoreStandardizedEach(detector, data, batch,
                        [&](std::size_t i, const std::vector<double>& scores) {
                          z[i] = scores[point];
                        });
  return z[0] - *std::max_element(z.begin() + 1, z.end());
}

RankedSubspaces RefineByDimensionalGain(
    const Dataset& data, const Detector& detector, int point,
    const RankedSubspaces& candidates,
    const DimensionRefinementOptions& options) {
  SUBEX_CHECK(options.max_candidates >= 1);
  TraceSpan refine(&MetricsRegistry::Global().GetHistogram("explain.refine"),
                   nullptr, "explain.refine");
  const std::size_t head = std::min<std::size_t>(options.max_candidates,
                                                 candidates.size());
  RankedSubspaces refined;
  for (std::size_t i = 0; i < head; ++i) {
    refined.Add(candidates.subspaces[i],
                DimensionalGain(data, detector, point,
                                candidates.subspaces[i]));
  }
  refined.SortDescendingAndTruncate(refined.size());
  // Tail keeps its original order, below every refined candidate.
  double floor = refined.scores.empty() ? 0.0 : refined.scores.back();
  for (std::size_t i = head; i < candidates.size(); ++i) {
    floor -= 1.0;
    refined.Add(candidates.subspaces[i], floor);
  }
  return refined;
}

}  // namespace subex
