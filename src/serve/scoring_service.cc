#include "serve/scoring_service.h"

#include <chrono>

#include "common/check.h"
#include "common/json.h"
#include "obs/event_log.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace subex {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ElapsedNs(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// A private cache's display name carries the detector, so eviction-manager
/// snapshots distinguish the per-service caches ("score_cache.LOF", ...).
ScoreCacheOptions NamedCacheOptions(ScoreCacheOptions options,
                                    const std::string& detector_name) {
  options.name += "." + detector_name;
  return options;
}

}  // namespace

ScoringService::ScoringService(const Detector& detector, const Dataset& data,
                               const ScoringServiceOptions& options,
                               ThreadPool* pool)
    : detector_(detector),
      data_(data),
      detector_name_(detector.name()),
      stats_(std::make_shared<ServiceStats>()),
      cache_(options.enable_cache
                 ? std::make_shared<ScoreCache>(
                       NamedCacheOptions(options.cache, detector_name_),
                       stats_.get())
                 : nullptr),
      pool_(pool),
      score_histogram_(&MetricsRegistry::Global().GetHistogram("detect.score")),
      detector_histogram_(&MetricsRegistry::Global().GetHistogram(
          "detect.score." + detector_name_)),
      prof_counters_(ProfCounterSet::ForKernel("detect." + detector_name_)) {}

ScoreVectorPtr ScoringService::Score(const Subspace& subspace) {
  ScoreKey key{detector_name_, subspace};
  if (cache_ != nullptr) {
    if (ScoreVectorPtr v = cache_->Get(key)) {
      stats_->RecordHit();
      return v;
    }
  }

  std::promise<ScoreVectorPtr> promise;
  std::shared_future<ScoreVectorPtr> future;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    // Re-probe under the lock: a leader may have published to the cache and
    // left the in-flight table between our miss above and here.
    if (cache_ != nullptr) {
      if (ScoreVectorPtr v = cache_->Get(key)) {
        stats_->RecordHit();
        return v;
      }
    }
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      inflight_.emplace(key, future);
      leader = true;
    }
  }

  if (!leader) {
    stats_->RecordDedupJoin();
    // A stampede: this caller blocks on another thread's in-flight compute.
    SUBEX_EVENT(EventSeverity::kDebug, "cache.single_flight_join",
                JsonObject()
                    .Add("detector", detector_name_)
                    .Add("subspace_dims",
                         static_cast<std::uint64_t>(key.subspace.size()))
                    .Build());
    return future.get();
  }
  return ComputeAndPublish(key, promise);
}

ScoreVectorPtr ScoringService::ComputeAndPublish(
    const ScoreKey& key, std::promise<ScoreVectorPtr>& promise) {
  const auto start = Clock::now();
  ScoreVectorPtr value;
  try {
    // Wall clock via the histograms below; cycles/IPC/misses via the
    // counter span — together the per-kernel evidence the SIMD roadmap
    // item is judged against.
    CounterSpan prof_span(&prof_counters_);
    value = std::make_shared<const std::vector<double>>(
        ScoreStandardized(detector_, data_, key.subspace));
  } catch (...) {
    // Unblock joiners with the same failure, then surface it here.
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  const std::uint64_t compute_ns = ElapsedNs(start);
  stats_->RecordComputeNs(compute_ns);
  score_histogram_->Record(compute_ns);
  detector_histogram_->Record(compute_ns);
  // Attach the compute interval to the calling request's trace (the server
  // installs it around ComputeResponse); orphan span otherwise.
  RecordCompletedSpan("detect.score", start, compute_ns);
  stats_->RecordMiss();
  // Publish to the cache *before* retiring the in-flight entry so a request
  // arriving in between always finds one of the two — never a gap that
  // would trigger a duplicate computation.
  if (cache_ != nullptr) cache_->Put(key, value);
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(key);
  }
  promise.set_value(value);
  return value;
}

std::vector<double> CachingDetector::Score(const Dataset& data,
                                           const Subspace& subspace) const {
  SUBEX_CHECK_MSG(
      &data == &service_.data(),
      "CachingDetector queried with a dataset other than its service's");
  return *service_.Score(subspace);
}

}  // namespace subex
