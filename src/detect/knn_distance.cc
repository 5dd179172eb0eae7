#include "detect/knn_distance.h"

#include "common/check.h"

namespace subex {

KnnDistance::KnnDistance(int k, Aggregation aggregation)
    : k_(k), aggregation_(aggregation) {
  SUBEX_CHECK(k >= 1);
}

std::vector<double> KnnDistance::Score(const Dataset& data,
                                       const Subspace& subspace) const {
  const KnnTable knn = ComputeKnn(data, subspace, k_);
  std::vector<double> scores(data.num_points());
  for (std::size_t p = 0; p < scores.size(); ++p) {
    scores[p] = AggregateKnnDistance(knn.neighbors[p], aggregation_);
  }
  return scores;
}

double AggregateKnnDistance(std::span<const Neighbor> neighbors,
                            KnnDistance::Aggregation aggregation) {
  if (aggregation == KnnDistance::Aggregation::kMax) {
    return neighbors.back().distance;
  }
  double sum = 0.0;
  for (const Neighbor& nb : neighbors) sum += nb.distance;
  return sum / static_cast<double>(neighbors.size());
}

}  // namespace subex
