#include "explain/hics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "stats/descriptive.h"
#include "subspace/enumeration.h"

namespace subex {

Hics::Hics(const Options& options) : options_(options) {
  SUBEX_CHECK(options.candidate_cutoff >= 1);
  SUBEX_CHECK(options.alpha > 0.0 && options.alpha < 1.0);
  SUBEX_CHECK(options.mc_iterations >= 1);
  SUBEX_CHECK(options.max_results >= 1);
}

double Hics::Contrast(const Dataset& data, const Subspace& subspace) const {
  const int n = static_cast<int>(data.num_points());
  const int m = static_cast<int>(subspace.size());
  SUBEX_CHECK(m >= 2);
  SUBEX_CHECK(n >= 10);

  Rng rng(options_.seed ^ SubspaceHash()(subspace));
  // Adaptive slice size: each of the m-1 conditioning features keeps an
  // alpha^(1/(m-1)) fraction, so the intersection keeps ~alpha * n points.
  const double keep_fraction =
      std::pow(options_.alpha, 1.0 / static_cast<double>(m - 1));
  const int window =
      std::max(2, static_cast<int>(std::lround(keep_fraction * n)));

  const std::vector<FeatureId>& features = subspace.features();
  std::vector<int> in_slice_count(n);
  std::vector<double> conditional;
  conditional.reserve(n);

  double deviation_sum = 0.0;
  int valid_iterations = 0;
  for (int iter = 0; iter < options_.mc_iterations; ++iter) {
    const int test_local = rng.UniformInt(0, m - 1);
    const FeatureId test_feature = features[test_local];

    std::fill(in_slice_count.begin(), in_slice_count.end(), 0);
    for (int j = 0; j < m; ++j) {
      if (j == test_local) continue;
      const std::vector<int>& order = data.SortedIndexByFeature(features[j]);
      const int start = rng.UniformInt(0, n - window);
      for (int t = start; t < start + window; ++t) ++in_slice_count[order[t]];
    }

    conditional.clear();
    for (int p = 0; p < n; ++p) {
      if (in_slice_count[p] == m - 1) {
        conditional.push_back(data.Value(p, test_feature));
      }
    }
    if (conditional.size() < 5) continue;  // Degenerate slice; skip.

    // Deviation of the conditional sample from the marginal, in [0, 1].
    // p-values saturate at ~1 for *any* real dependence once n is large,
    // which would tie all dependent subspaces; the statistic magnitudes
    // below keep the ordering informative:
    //  * KS: the supremum CDF distance D (the original HiCS measure);
    //  * Welch: the standardized mean difference |mean_c - mean_m| / sd_m,
    //    soft-clamped into [0, 1).
    const std::vector<double> marginal = data.matrix().Column(test_feature);
    double deviation = 0.0;
    if (options_.test == TwoSampleTestKind::kKolmogorovSmirnov) {
      deviation = KolmogorovSmirnovTest(conditional, marginal).statistic;
    } else {
      const double sd = std::max(1e-9, SampleStdDev(marginal));
      const double smd =
          std::fabs(Mean(conditional) - Mean(marginal)) / sd;
      deviation = smd / (1.0 + smd);
    }
    deviation_sum += deviation;
    ++valid_iterations;
  }
  return valid_iterations > 0
             ? deviation_sum / static_cast<double>(valid_iterations)
             : 0.0;
}

RankedSubspaces Hics::Summarize(const Dataset& data, const Detector& detector,
                                const std::vector<int>& points,
                                int target_dim) const {
  const int d = static_cast<int>(data.num_features());
  SUBEX_CHECK(target_dim >= 2 && target_dim <= d);
  SUBEX_CHECK(!points.empty());

  // Stage 2 holds every feature pair; later stages extend the survivors by
  // one feature. Each stage measures all contrasts on the current pool and
  // keeps the top `candidate_cutoff`.
  RankedSubspaces stage;
  auto run_stage = [&] {
    stage.scores.resize(stage.size());
    ThreadPool::ParallelForOnCurrent(stage.size(), [&](std::size_t i) {
      stage.scores[i] = Contrast(data, stage.subspaces[i]);
    });
    stage.KeepTop(options_.candidate_cutoff);
  };
  stage.subspaces = EnumerateSubspaces(d, 2);
  run_stage();
  for (int dim = 3; dim <= target_dim; ++dim) {
    stage.subspaces = ExtendByOneFeature(stage.subspaces, d);
    run_stage();
  }

  // _FX output: subspaces of exactly target_dim, top max_results by
  // contrast, finally ordered per the configured ranking: by contrast, or
  // by the points' mean standardized score, scored as one batch.
  stage.KeepTop(options_.max_results);
  if (options_.ranking == Ranking::kDetector) {
    ScoreStandardizedEach(
        detector, data, stage.subspaces,
        [&](std::size_t i, const std::vector<double>& scores) {
          double sum = 0.0;
          for (int p : points) sum += scores[p];
          stage.scores[i] = sum / static_cast<double>(points.size());
        });
  }
  stage.SortDescendingAndTruncate(options_.max_results);
  return stage;
}

}  // namespace subex
