#include "data/dataset.h"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "common/check.h"

namespace subex {

struct Dataset::Cache {
  std::mutex mutex;
  std::vector<std::vector<int>> sorted_by_feature;
};

Dataset::Dataset() : cache_(std::make_shared<Cache>()) {}

Dataset::Dataset(Matrix data, std::vector<int> outlier_indices)
    : data_(std::move(data)), cache_(std::make_shared<Cache>()) {
  cache_->sorted_by_feature.resize(data_.cols());
  SetOutlierIndices(std::move(outlier_indices));
}

void Dataset::SetOutlierIndices(std::vector<int> indices) {
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  for (int i : indices) {
    SUBEX_CHECK_MSG(i >= 0 && static_cast<std::size_t>(i) < data_.rows(),
                    "outlier index out of range");
  }
  outlier_indices_ = std::move(indices);
}

bool Dataset::IsOutlier(int p) const {
  return std::binary_search(outlier_indices_.begin(), outlier_indices_.end(),
                            p);
}

double Dataset::ContaminationRatio() const {
  if (data_.rows() == 0) return 0.0;
  return static_cast<double>(outlier_indices_.size()) /
         static_cast<double>(data_.rows());
}

const std::vector<int>& Dataset::SortedIndexByFeature(FeatureId f) const {
  SUBEX_CHECK(f >= 0 && static_cast<std::size_t>(f) < data_.cols());
  std::lock_guard<std::mutex> lock(cache_->mutex);
  std::vector<int>& cached = cache_->sorted_by_feature[f];
  if (cached.empty() && data_.rows() > 0) {
    cached.resize(data_.rows());
    std::iota(cached.begin(), cached.end(), 0);
    const Matrix& m = data_;
    std::stable_sort(cached.begin(), cached.end(), [&](int a, int b) {
      return m(a, f) < m(b, f);
    });
  }
  return cached;
}

std::vector<double> Dataset::GatherColumns(
    std::span<const FeatureId> features) const {
  const std::size_t n = num_points();
  std::vector<double> columns(features.size() * n);
  for (std::size_t j = 0; j < features.size(); ++j) {
    for (std::size_t p = 0; p < n; ++p) {
      columns[j * n + p] = data_(p, features[j]);
    }
  }
  return columns;
}

}  // namespace subex
