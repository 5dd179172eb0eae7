#ifndef SUBEX_DETECT_LOF_H_
#define SUBEX_DETECT_LOF_H_

#include <algorithm>
#include <span>

#include "detect/detector.h"
#include "detect/knn.h"

namespace subex {

/// Local reachability density of a point with sorted kNN list `neighbors`:
///   lrd_k(p) = 1 / mean_{o in kNN(p)} max(k-dist(o), d(p, o)),
/// where `k_distance(o)` is the distance from `o` to its own k-th neighbor.
/// Duplicate-heavy data can make the mean reachability distance zero; the
/// epsilon keeps lrd finite and preserves ordering. Shared by `Lof` and the
/// chunked LOF scorer, so both sum in the same order.
template <typename KDistance>
double LocalReachabilityDensity(std::span<const Neighbor> neighbors,
                                KDistance&& k_distance) {
  constexpr double kEpsilon = 1e-10;
  double sum = 0.0;
  for (const Neighbor& nb : neighbors) {
    sum += std::max(k_distance(nb.index), nb.distance);
  }
  const double mean = sum / static_cast<double>(neighbors.size());
  return 1.0 / std::max(mean, kEpsilon);
}

/// LOF_k(p) = mean_{o in kNN(p)} lrd(o) / lrd(p), given p's list, its
/// `own_lrd` and `lrd(o)` for its neighbors.
template <typename Lrd>
double LocalOutlierFactor(std::span<const Neighbor> neighbors,
                          double own_lrd, Lrd&& lrd) {
  double sum = 0.0;
  for (const Neighbor& nb : neighbors) sum += lrd(nb.index);
  return sum / (static_cast<double>(neighbors.size()) * own_lrd);
}

/// Local Outlier Factor [Breunig et al., SIGMOD 2000].
///
/// Density-based detector: compares each point's local reachability density
/// with that of its k nearest neighbors. Inliers score ~1, outliers
/// substantially above 1. O(n^2) per subspace. The paper runs it with k=15
/// and finds it the fastest and, for clustered/density outliers, the most
/// effective detector of the testbed.
class Lof final : public Detector {
 public:
  /// `k`: neighborhood size (MinPts); the testbed default is 15.
  explicit Lof(int k = 15);

  std::string name() const override { return "LOF"; }
  std::vector<double> Score(const Dataset& data,
                            const Subspace& subspace) const override;

  int k() const { return k_; }

 private:
  int k_;
};

}  // namespace subex

#endif  // SUBEX_DETECT_LOF_H_
