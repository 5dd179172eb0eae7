#ifndef SUBEX_CORE_GROUND_TRUTH_BUILDER_H_
#define SUBEX_CORE_GROUND_TRUTH_BUILDER_H_

#include "data/ground_truth.h"
#include "serve/scoring_service.h"

namespace subex {

/// Options of the exhaustive ground-truth search.
struct GroundTruthBuilderOptions {
  /// Dimensionality range searched; §3.2 uses 2 to 4 for the real datasets.
  int min_dim = 2;
  int max_dim = 4;
};

/// Builds explanation ground truth for a dataset whose outliers are known
/// but whose relevant subspaces are not — the procedure the paper applied
/// to the real datasets (§3.2): for every dimensionality in
/// [min_dim, max_dim], score *all* subspaces of `service.data()` with the
/// service's detector (the paper uses LOF) and record, per outlier, the
/// single subspace in which the outlier's z-standardized score is highest.
/// Ties go to the first candidate in `EnumerateSubspaces` order.
///
/// The result assigns each outlier exactly one relevant subspace per
/// dimensionality. Candidates are scored through `service.ScoreMany` in
/// fixed-size chunks, so the sweep parallelizes on the service's pool; the
/// result does not depend on the pool or the cache. An exhaustive sweep
/// never repeats a subspace, so a service with `enable_cache = false` and
/// no pool is the plain serial search.
GroundTruth BuildGroundTruthByExhaustiveSearch(
    ScoringService& service, const GroundTruthBuilderOptions& options);

}  // namespace subex

#endif  // SUBEX_CORE_GROUND_TRUTH_BUILDER_H_
