#include "detect/loda.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace subex {

Loda::Loda(const Options& options) : options_(options) {
  SUBEX_CHECK(options.num_projections >= 1);
  SUBEX_CHECK(options.num_bins >= 0);
}

std::vector<double> Loda::Score(const Dataset& data,
                                const Subspace& subspace) const {
  const int n = static_cast<int>(data.num_points());
  SUBEX_CHECK(n >= 3);
  const int bins = LodaBinCount(options_, n);
  std::vector<double> neg_log_density_sum(n, 0.0);
  std::vector<double> projected(n);
  std::vector<int> histogram;
  for (const LodaProjector& projector :
       DrawLodaProjectors(options_, subspace, data.num_features())) {
    for (int p = 0; p < n; ++p) {
      projected[p] = projector.Project(data.matrix().Row(p));
    }
    AddLodaProjector(
        [&projected](auto&& fn) {
          for (std::size_t p = 0; p < projected.size(); ++p) {
            fn(p, projected[p]);
          }
        },
        bins, histogram, neg_log_density_sum);
  }
  for (double& s : neg_log_density_sum) s /= options_.num_projections;
  return neg_log_density_sum;
}

std::vector<LodaProjector> DrawLodaProjectors(const Loda::Options& options,
                                              const Subspace& subspace,
                                              std::size_t num_features) {
  const std::vector<FeatureId> features =
      ResolveFeatures(subspace, num_features);
  const int dim = static_cast<int>(features.size());
  const int sparse_count =
      std::max(1, static_cast<int>(std::lround(std::sqrt(dim))));
  Rng rng(options.seed ^ SubspaceHash()(subspace));
  std::vector<LodaProjector> projectors(options.num_projections);
  for (LodaProjector& projector : projectors) {
    for (int active : rng.SampleWithoutReplacement(dim, sparse_count)) {
      projector.features.push_back(features[active]);
    }
    for (std::size_t j = 0; j < projector.features.size(); ++j) {
      projector.weights.push_back(rng.Gaussian());
    }
  }
  return projectors;
}

int LodaBinCount(const Loda::Options& options, int n) {
  return options.num_bins > 0
             ? options.num_bins
             : std::max(4, static_cast<int>(2.0 * std::cbrt(n)));
}

}  // namespace subex
