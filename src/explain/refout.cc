#include "explain/refout.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "subspace/enumeration.h"

namespace subex {

RefOut::RefOut(const Options& options) : options_(options) {
  SUBEX_CHECK(options.pool_size >= 4);
  SUBEX_CHECK(options.beam_width >= 1);
  SUBEX_CHECK(options.projection_ratio > 0.0 && options.projection_ratio <= 1.0);
  SUBEX_CHECK(options.max_results >= 1);
}

RankedSubspaces RefOut::Explain(const Dataset& data, const Detector& detector,
                                int point, int target_dim) const {
  const int d = static_cast<int>(data.num_features());
  SUBEX_CHECK(target_dim >= 1 && target_dim <= d);
  SUBEX_CHECK(point >= 0 &&
              static_cast<std::size_t>(point) < data.num_points());

  // Deterministic pool per (seed, point).
  Rng rng(options_.seed ^
          (0xd1b54a32d192ed03ull * static_cast<std::uint64_t>(point + 1)));
  int projection_dim = static_cast<int>(
      std::lround(options_.projection_ratio * static_cast<double>(d)));
  projection_dim = std::clamp(projection_dim, std::min(target_dim, d), d);

  const std::vector<Subspace> pool =
      SampleRandomSubspaces(d, projection_dim, options_.pool_size, rng);
  std::vector<double> pool_scores(pool.size());
  ScoreStandardizedEach(detector, data, pool,
                        [&](std::size_t i, const std::vector<double>& scores) {
                          pool_scores[i] = scores[point];
                        });

  // Discrepancy of the score populations of pool members that contain vs.
  // do not contain the candidate. For Welch the statistic is kept signed
  // (with-mean minus without-mean): a relevant candidate *raises* the
  // point's outlyingness when present, so negative shifts are noise, not
  // importance. The KS statistic is inherently unsigned.
  auto discrepancy = [&](const Subspace& candidate) {
    std::vector<double> with;
    std::vector<double> without;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      (pool[i].ContainsAll(candidate) ? with : without)
          .push_back(pool_scores[i]);
    }
    if (with.size() < 2 || without.size() < 2) return 0.0;
    const TestResult r = RunTwoSampleTest(options_.test, with, without);
    return std::isfinite(r.statistic) ? r.statistic : 0.0;
  };

  // Stage 1 holds the single features; stages 2..target_dim cross the
  // survivors with all single features. Each stage keeps the beam.
  RankedSubspaces stage;
  auto run_stage = [&] {
    stage.scores.resize(stage.size());
    for (std::size_t i = 0; i < stage.size(); ++i) {
      stage.scores[i] = discrepancy(stage.subspaces[i]);
    }
    stage.KeepTop(options_.beam_width);
  };
  for (FeatureId f = 0; f < d; ++f) stage.subspaces.emplace_back(Subspace({f}));
  run_stage();
  for (int dim = 2; dim <= target_dim; ++dim) {
    stage.subspaces = ExtendByOneFeature(stage.subspaces, d);
    run_stage();
  }

  // Final ranking: by the discrepancy statistic itself. (Ranking by the
  // point's direct standardized score instead would systematically favour
  // subspaces where the point is the *only* deviant -- the z-score
  // saturates at sqrt(n / #deviants) -- burying relevant subspaces that
  // explain several outliers. The pool discrepancy does not suffer from
  // this because irrelevant padding features dilute it.)
  stage.KeepTop(options_.max_results);
  return stage;
}

}  // namespace subex
