#ifndef SUBEX_SERVE_SCORING_SERVICE_H_
#define SUBEX_SERVE_SCORING_SERVICE_H_

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "detect/detector.h"
#include "obs/metrics.h"
#include "prof/perf_counters.h"
#include "serve/score_cache.h"
#include "serve/service_stats.h"
#include "subspace/subspace.h"

namespace subex {

/// Knobs of a `ScoringService`.
struct ScoringServiceOptions {
  /// False disables memoization: every unique request computes, but
  /// single-flight deduplication of concurrent identical requests stays on.
  bool enable_cache = true;
  /// Cache sizing (ignored when `enable_cache` is false).
  ScoreCacheOptions cache;
};

/// Concurrent, memoizing scoring backend: owns one detector + one dataset
/// and serves the **standardized** score vector of any subspace, the exact
/// bytes `ScoreStandardized(detector, data, subspace)` would produce.
///
/// Two mechanisms make repeated/overlapping scoring cheap:
///  * a sharded LRU `ScoreCache` keyed by `(detector name, subspace)`
///    remembers recently served vectors within an entry/byte budget;
///  * **single-flight deduplication**: concurrent requests for the same
///    uncached subspace block on one in-flight computation (a
///    `shared_future` per key) instead of recomputing it N times.
/// Batches fan out through `ScoreStandardizedEach` on a `CachingDetector`
/// under a `ThreadPool::Scope` of `pool()`.
///
/// All methods are safe to call concurrently. Determinism: detectors are
/// pure (stochastic ones seed from the subspace identity), so a cached
/// vector is bitwise identical to a fresh computation. The referenced
/// detector, dataset and pool must outlive the service.
class ScoringService {
 public:
  /// Service with its own private cache sized by `options.cache` (none when
  /// `options.enable_cache` is false).
  ScoringService(const Detector& detector, const Dataset& data,
                 const ScoringServiceOptions& options = {},
                 ThreadPool* pool = nullptr);

  ScoringService(const ScoringService&) = delete;
  ScoringService& operator=(const ScoringService&) = delete;

  /// Standardized scores of every dataset point within `subspace`. Served
  /// from cache when possible; otherwise computed once, even under
  /// concurrent identical requests.
  ScoreVectorPtr Score(const Subspace& subspace);

  /// Counter snapshot (hits/misses/dedup-joins/evictions/compute-ns).
  ServiceStatsSnapshot stats() const { return stats_->snapshot(); }

  const Detector& detector() const { return detector_; }
  const Dataset& data() const { return data_; }
  /// The detector's display name, also the cache key prefix.
  const std::string& detector_name() const { return detector_name_; }
  ThreadPool* pool() const { return pool_; }
  /// The underlying cache (null when constructed cache-less).
  const std::shared_ptr<ScoreCache>& cache() const { return cache_; }

 private:
  ScoreVectorPtr ComputeAndPublish(const ScoreKey& key,
                                   std::promise<ScoreVectorPtr>& promise);

  const Detector& detector_;
  const Dataset& data_;
  std::string detector_name_;
  std::shared_ptr<ServiceStats> stats_;
  std::shared_ptr<ScoreCache> cache_;
  ThreadPool* pool_;
  /// Global-registry latency histograms fed per fresh computation:
  /// `detect.score` across all detectors plus `detect.score.<name>`.
  Histogram* score_histogram_;
  Histogram* detector_histogram_;
  /// Hardware-counter instruments of this detector's score kernel
  /// (`prof.*.detect.<name>`), fed by a `CounterSpan` around each fresh
  /// computation; zeros when perf counters are unavailable.
  ProfCounterSet prof_counters_;

  std::mutex inflight_mutex_;
  std::unordered_map<ScoreKey, std::shared_future<ScoreVectorPtr>,
                     ScoreKeyHash>
      inflight_;
};

/// `Detector` adapter routing `Score` through a `ScoringService`, so every
/// explainer taking `const Detector&` gains caching + deduplication without
/// code changes; the pipelines hand it to the explainers. Returns the
/// service's standardized vectors and reports `ReturnsStandardizedScores()
/// == true`, so `ScoreStandardized(adapter, ...)` passes them through
/// bitwise-intact.
/// Only valid for the service's own dataset (checked).
class CachingDetector : public Detector {
 public:
  explicit CachingDetector(ScoringService& service) : service_(service) {}

  std::string name() const override { return service_.detector_name(); }
  std::vector<double> Score(const Dataset& data,
                            const Subspace& subspace) const override;
  bool ReturnsStandardizedScores() const override { return true; }

  ScoringService& service() const { return service_; }

 private:
  ScoringService& service_;
};

}  // namespace subex

#endif  // SUBEX_SERVE_SCORING_SERVICE_H_
