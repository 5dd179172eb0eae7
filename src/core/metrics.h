#ifndef SUBEX_CORE_METRICS_H_
#define SUBEX_CORE_METRICS_H_

#include <vector>

#include "subspace/subspace.h"

namespace subex {

/// Average Precision (Eq. 2):
///   AveP = sum_k P@k * rel(k) / |relevant|,
/// where P@k (Eq. 1) is the fraction of the first `k` returned subspaces
/// that are relevant. A returned subspace is relevant only if it is
/// *identical* to a ground-truth subspace.
/// Returns 0 when `relevant` is empty.
double AveragePrecision(const std::vector<Subspace>& ranked,
                        const std::vector<Subspace>& relevant);

/// Recall: |relevant ∩ ranked| / |relevant|. Returns 0 when `relevant` is
/// empty.
double Recall(const std::vector<Subspace>& ranked,
              const std::vector<Subspace>& relevant);

/// Accumulates per-point Average Precision / Recall into the dataset-level
/// MAP (Eq. 3) and Mean Recall the paper reports per explanation
/// dimensionality.
class ExplanationScorer {
 public:
  /// Records one explained point's ranked result against its ground truth.
  void AddPoint(const std::vector<Subspace>& ranked,
                const std::vector<Subspace>& relevant);

  /// Mean Average Precision over all added points; 0 if none were added.
  double MeanAveragePrecision() const;
  /// Mean Recall over all added points; 0 if none were added.
  double MeanRecall() const;
  /// Number of points accumulated.
  int num_points() const { return num_points_; }

 private:
  double sum_average_precision_ = 0.0;
  double sum_recall_ = 0.0;
  int num_points_ = 0;
};

/// Area under the ROC curve of detector scores against binary outlier
/// labels (1 = outlier). Used by the detector sanity tests and the detector
/// microbenchmarks; ties receive the standard 0.5 credit. Returns 0.5 when
/// either class is empty.
double RocAuc(const std::vector<double>& scores,
              const std::vector<bool>& is_outlier);

}  // namespace subex

#endif  // SUBEX_CORE_METRICS_H_
