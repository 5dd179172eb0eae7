#ifndef SUBEX_DETECT_DETECTOR_H_
#define SUBEX_DETECT_DETECTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "subspace/subspace.h"

namespace subex {

/// Unsupervised outlier detector interface.
///
/// The testbed's central abstraction: explainers are detector-agnostic and
/// only ever interact with a detector through `Score`. Implementations must
/// return one score per point with the orientation **higher = more
/// outlying**, and must be safe to call concurrently from multiple threads
/// (scoring may not mutate shared state; stochastic detectors derive their
/// randomness deterministically from the subspace identity).
class Detector {
 public:
  virtual ~Detector() = default;

  /// Short human-readable name ("LOF", "FastABOD", "iForest").
  virtual std::string name() const = 0;

  /// Outlyingness scores of every point of `data`, computed in the feature
  /// subspace `subspace`. An empty subspace means the full feature space.
  virtual std::vector<double> Score(const Dataset& data,
                                    const Subspace& subspace) const = 0;

  /// True when `Score` already returns per-subspace standardized scores
  /// (e.g. caching adapters that serve pre-standardized vectors).
  /// `ScoreStandardized` then passes them through untouched instead of
  /// standardizing twice, preserving bitwise equality with the direct path.
  virtual bool ReturnsStandardizedScores() const { return false; }
};

/// `Score` followed by per-subspace z-score standardization
/// (`score' = (score - mean) / sd`, the dimensionality-bias correction of
/// §2.2). All explainers compare scores across subspaces through this
/// helper.
std::vector<double> ScoreStandardized(const Detector& detector,
                                      const Dataset& data,
                                      const Subspace& subspace);

/// `ScoreStandardized` of every subspace of a batch (an explainer's stage,
/// pool or candidate list), handing each vector to `use(i, scores)` for
/// `subspaces[i]`. Runs on `ThreadPool::Current()` when the calling thread
/// has one, serially otherwise, so `use` must be safe to call concurrently
/// for distinct `i`; each `i` is visited exactly once, in no fixed order.
void ScoreStandardizedEach(
    const Detector& detector, const Dataset& data,
    std::span<const Subspace> subspaces,
    const std::function<void(std::size_t, const std::vector<double>&)>& use);

/// The three detector families of the testbed.
enum class DetectorKind {
  kLof,
  kFastAbod,
  kIsolationForest,
};

/// Builds a detector with the hyper-parameters of §3.1: LOF with k=15,
/// Fast ABOD with k=10, iForest with 100 trees, subsample 256 and 10
/// averaged repetitions. `seed` feeds stochastic detectors only.
std::unique_ptr<Detector> MakeDetector(DetectorKind kind,
                                       std::uint64_t seed = 42);

/// All three kinds, in the order the paper's figures list them.
std::vector<DetectorKind> AllDetectorKinds();

/// Display name of a kind without constructing the detector.
const char* DetectorKindName(DetectorKind kind);

}  // namespace subex

#endif  // SUBEX_DETECT_DETECTOR_H_
