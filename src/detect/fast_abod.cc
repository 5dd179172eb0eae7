#include "detect/fast_abod.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "detect/knn.h"

namespace subex {

FastAbod::FastAbod(int k) : k_(k) { SUBEX_CHECK(k >= 2); }

std::vector<double> FastAbod::Score(const Dataset& data,
                                    const Subspace& subspace) const {
  const int n = static_cast<int>(data.num_points());
  const KnnTable knn = ComputeKnn(data, subspace, k_);
  const std::vector<FeatureId> features =
      ResolveFeatures(subspace, data.num_features());

  std::vector<double> scores(n, 0.0);
  std::vector<int> neighbors;
  std::vector<double> diffs;
  std::vector<double> sq_norms;
  for (int p = 0; p < n; ++p) {
    neighbors.clear();
    for (const Neighbor& nb : knn.neighbors[p]) neighbors.push_back(nb.index);
    scores[p] =
        AngleBasedScore(data.matrix(), p, features, neighbors, diffs, sq_norms);
  }
  return scores;
}

double AngleBasedScore(const Matrix& m, int p,
                       std::span<const FeatureId> features,
                       std::span<const int> others, std::vector<double>& diffs,
                       std::vector<double>& sq_norms) {
  constexpr double kMinSqNorm = 1e-18;  // Skip coincident points.
  const std::size_t dim = features.size();
  const std::size_t count_others = others.size();
  // Difference vectors p -> other, one row each.
  diffs.resize(count_others * dim);
  sq_norms.resize(count_others);
  const std::span<const double> rp = m.Row(p);
  for (std::size_t i = 0; i < count_others; ++i) {
    const std::span<const double> rq = m.Row(others[i]);
    double sq = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      const double d = rq[features[j]] - rp[features[j]];
      diffs[i * dim + j] = d;
      sq += d * d;
    }
    sq_norms[i] = sq;
  }
  // Variance of the angle factor over all pairs (Welford-free two-pass:
  // for Fast ABOD the pair count is small, k*(k-1)/2 <= 45 for k = 10).
  double sum = 0.0;
  double sum_sq = 0.0;
  long long count = 0;
  for (std::size_t a = 0; a < count_others; ++a) {
    if (sq_norms[a] < kMinSqNorm) continue;
    for (std::size_t b = a + 1; b < count_others; ++b) {
      if (sq_norms[b] < kMinSqNorm) continue;
      double dot = 0.0;
      for (std::size_t t = 0; t < dim; ++t) {
        dot += diffs[a * dim + t] * diffs[b * dim + t];
      }
      const double value = dot / (sq_norms[a] * sq_norms[b]);
      sum += value;
      sum_sq += value * value;
      ++count;
    }
  }
  double abof = 0.0;
  if (count >= 2) {
    const double mean = sum / static_cast<double>(count);
    abof = std::max(0.0, sum_sq / static_cast<double>(count) - mean * mean);
  }
  // Low angle variance = outlier. The ABOF has a heavy 1/dist^4 tail, so
  // the rank-preserving -log transform keeps downstream z-scores (and
  // Welch statistics over score populations) from being dominated by a
  // few ultra-dense inliers. Higher = more outlying.
  return -std::log(abof + 1e-12);
}

}  // namespace subex
