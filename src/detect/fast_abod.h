#ifndef SUBEX_DETECT_FAST_ABOD_H_
#define SUBEX_DETECT_FAST_ABOD_H_

#include <span>
#include <vector>

#include "detect/detector.h"

namespace subex {

/// Fast Angle-Based Outlier Detection [Kriegel et al., KDD 2008].
///
/// Computes, per point, the variance of the normalized dot products
/// <x1-p, x2-p> / (|x1-p|^2 * |x2-p|^2) over pairs of its k nearest
/// neighbors (the O(k n^2) approximation of the O(n^3) exact ABOD). Points
/// surrounded by neighbors in many directions have high angle variance
/// (inliers); border points have low variance (outliers). Following the
/// testbed's orientation convention the returned score is the *negated*
/// variance, so higher = more outlying.
class FastAbod final : public Detector {
 public:
  /// `k`: neighborhood size; the testbed default is 10.
  explicit FastAbod(int k = 10);

  std::string name() const override { return "FastABOD"; }
  std::vector<double> Score(const Dataset& data,
                            const Subspace& subspace) const override;

  int k() const { return k_; }

 private:
  int k_;
};

/// The angle-based outlier score of point `p` of `m` within `features`,
/// from its difference vectors to the points `others`: the variance of
/// <a, b> / (|a|^2 * |b|^2) over pairs of non-coincident vectors, mapped
/// to -log(variance + 1e-12) so higher = more outlying. Fast ABOD passes
/// p's k nearest neighbors, exact ABOD every other point. `diffs` and
/// `sq_norms` are caller-owned scratch.
double AngleBasedScore(const Matrix& m, int p,
                       std::span<const FeatureId> features,
                       std::span<const int> others, std::vector<double>& diffs,
                       std::vector<double>& sq_norms);

}  // namespace subex

#endif  // SUBEX_DETECT_FAST_ABOD_H_
