#include "explain/beam.h"

#include "common/check.h"
#include "subspace/enumeration.h"

namespace subex {

Beam::Beam(const Options& options) : options_(options) {
  SUBEX_CHECK(options.beam_width >= 1);
  SUBEX_CHECK(options.max_results >= 1);
}

RankedSubspaces Beam::Explain(const Dataset& data, const Detector& detector,
                              int point, int target_dim) const {
  const int d = static_cast<int>(data.num_features());
  SUBEX_CHECK(target_dim >= 2 && target_dim <= d);
  SUBEX_CHECK(point >= 0 && static_cast<std::size_t>(point) < data.num_points());

  // Each stage scores all its subspaces for the point as one batch, keeps
  // the beam and, in global-best mode, remembers every survivor.
  RankedSubspaces stage;
  RankedSubspaces global;
  auto run_stage = [&] {
    stage.scores.resize(stage.size());
    ScoreStandardizedEach(
        detector, data, stage.subspaces,
        [&](std::size_t i, const std::vector<double>& scores) {
          stage.scores[i] = scores[point];
        });
    stage.KeepTop(options_.beam_width);
    if (options_.result_mode == ResultMode::kGlobalBest) {
      for (std::size_t i = 0; i < stage.size(); ++i) {
        global.Add(stage.subspaces[i], stage.scores[i]);
      }
    }
  };

  // Stage 1: exhaustive 2d scoring; later stages extend survivors by one
  // feature and rescore.
  stage.subspaces = EnumerateSubspaces(d, 2);
  run_stage();
  for (int dim = 3; dim <= target_dim; ++dim) {
    stage.subspaces = ExtendByOneFeature(stage.subspaces, d);
    run_stage();
  }

  RankedSubspaces& result =
      options_.result_mode == ResultMode::kGlobalBest ? global : stage;
  result.SortDescendingAndTruncate(options_.max_results);
  return std::move(result);
}

std::uint64_t Beam::CountScoredSubspaces(int num_features, int target_dim,
                                         int beam_width) {
  std::uint64_t total = CombinationCount(num_features, 2);
  for (int dim = 3; dim <= target_dim; ++dim) {
    // Each survivor spawns at most (num_features - dim + 1) extensions;
    // duplicates reduce this in practice, so this is an upper bound.
    total += static_cast<std::uint64_t>(beam_width) *
             static_cast<std::uint64_t>(num_features - dim + 1);
  }
  return total;
}

}  // namespace subex
