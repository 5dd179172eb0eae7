#include "detect/detector.h"

#include "common/check.h"
#include "common/thread_pool.h"
#include "detect/fast_abod.h"
#include "detect/isolation_forest.h"
#include "detect/lof.h"
#include "stats/descriptive.h"

namespace subex {

std::vector<double> ScoreStandardized(const Detector& detector,
                                      const Dataset& data,
                                      const Subspace& subspace) {
  std::vector<double> scores = detector.Score(data, subspace);
  if (detector.ReturnsStandardizedScores()) return scores;
  return Standardize(scores);
}

void ScoreStandardizedEach(
    const Detector& detector, const Dataset& data,
    std::span<const Subspace> subspaces,
    const std::function<void(std::size_t, const std::vector<double>&)>& use) {
  ThreadPool::ParallelForOnCurrent(subspaces.size(), [&](std::size_t i) {
    use(i, ScoreStandardized(detector, data, subspaces[i]));
  });
}

std::unique_ptr<Detector> MakeDetector(DetectorKind kind, std::uint64_t seed) {
  switch (kind) {
    case DetectorKind::kLof:
      return std::make_unique<Lof>(15);
    case DetectorKind::kFastAbod:
      return std::make_unique<FastAbod>(10);
    case DetectorKind::kIsolationForest: {
      IsolationForest::Options options;
      options.seed = seed;
      return std::make_unique<IsolationForest>(options);
    }
  }
  SUBEX_CHECK_MSG(false, "unknown detector kind");
  return nullptr;
}

std::vector<DetectorKind> AllDetectorKinds() {
  return {DetectorKind::kLof, DetectorKind::kFastAbod,
          DetectorKind::kIsolationForest};
}

const char* DetectorKindName(DetectorKind kind) {
  switch (kind) {
    case DetectorKind::kLof:
      return "LOF";
    case DetectorKind::kFastAbod:
      return "FastABOD";
    case DetectorKind::kIsolationForest:
      return "iForest";
  }
  return "unknown";
}

}  // namespace subex
