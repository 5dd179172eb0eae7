#ifndef SUBEX_DATA_DATASET_H_
#define SUBEX_DATA_DATASET_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "subspace/subspace.h"

namespace subex {

/// A multi-dimensional numeric dataset plus the point-of-interest labels the
/// explanation pipelines consume.
///
/// Rows are points, columns are features. `outlier_indices()` is the set of
/// to-be-explained points (the paper's "points of interest"); it is an input
/// to explainers, not something the library re-detects — the testbed's
/// premise is that detection and explanation are decoupled.
///
/// The dataset caches, per feature, the permutation of row indices sorted by
/// that feature's value. HiCS' Monte-Carlo slicing draws contiguous windows
/// in this order on every iteration, so the cache turns an O(n log n) sort
/// per iteration into a one-time cost.
class Dataset {
 public:
  Dataset();

  /// Wraps a matrix. `outlier_indices` may be empty and set later.
  explicit Dataset(Matrix data, std::vector<int> outlier_indices = {});

  /// Number of points.
  std::size_t num_points() const { return data_.rows(); }
  /// Number of features.
  std::size_t num_features() const { return data_.cols(); }

  /// The underlying matrix.
  const Matrix& matrix() const { return data_; }

  /// Value of feature `f` for point `p`.
  double Value(std::size_t p, FeatureId f) const { return data_(p, f); }

  /// Indices of the to-be-explained points, ascending.
  const std::vector<int>& outlier_indices() const { return outlier_indices_; }

  /// Replaces the to-be-explained point set. Indices must be in range and
  /// are stored sorted and deduplicated.
  void SetOutlierIndices(std::vector<int> indices);

  /// True if point `p` is one of the points of interest.
  bool IsOutlier(int p) const;

  /// Fraction of points labelled as outliers, in [0, 1].
  double ContaminationRatio() const;

  /// Row indices sorted ascending by the value of feature `f`; computed once
  /// per feature and cached. The reference stays valid for the lifetime of
  /// the dataset (the cache is append-only behind a shared_ptr).
  const std::vector<int>& SortedIndexByFeature(FeatureId f) const;

  /// Column-major copy of `features`: the value of point `p` in feature
  /// `features[j]` sits at `[j * num_points() + p]`. The detector kernels
  /// scan one subspace feature at a time over all points, so they work on
  /// this block instead of striding through the row-major matrix.
  std::vector<double> GatherColumns(std::span<const FeatureId> features) const;

 private:
  Matrix data_;
  std::vector<int> outlier_indices_;
  // Lazily filled: sorted_index_cache_[f] is empty until first requested.
  // shared_ptr keeps Dataset cheaply copyable while sharing the cache.
  struct Cache;
  std::shared_ptr<Cache> cache_;
};

}  // namespace subex

#endif  // SUBEX_DATA_DATASET_H_
