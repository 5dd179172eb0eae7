#include "detect/exact_abod.h"

#include "common/check.h"
#include "detect/fast_abod.h"

namespace subex {

std::vector<double> ExactAbod::Score(const Dataset& data,
                                     const Subspace& subspace) const {
  const int n = static_cast<int>(data.num_points());
  SUBEX_CHECK(n >= 3);
  const std::vector<FeatureId> features =
      ResolveFeatures(subspace, data.num_features());

  std::vector<double> scores(n);
  std::vector<int> others;
  std::vector<double> diffs;
  std::vector<double> sq_norms;
  for (int p = 0; p < n; ++p) {
    others.clear();
    for (int q = 0; q < n; ++q) {
      if (q != p) others.push_back(q);
    }
    scores[p] =
        AngleBasedScore(data.matrix(), p, features, others, diffs, sq_norms);
  }
  return scores;
}

}  // namespace subex
