#ifndef SUBEX_SERVE_SERVICE_STATS_H_
#define SUBEX_SERVE_SERVICE_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace subex {

/// Point-in-time view of a scoring service's counters, with the derived
/// quantities reports print. Copyable plain data.
struct ServiceStatsSnapshot {
  std::uint64_t hits = 0;         ///< Requests served from the cache.
  std::uint64_t misses = 0;       ///< Requests that computed fresh scores.
  std::uint64_t dedup_joins = 0;  ///< Requests that joined an in-flight
                                  ///< computation instead of recomputing.
  std::uint64_t evictions = 0;    ///< Entries evicted to stay in budget.
  std::uint64_t compute_ns = 0;   ///< Total nanoseconds spent in Score.

  /// Total requests answered (hits + misses + dedup joins).
  std::uint64_t Requests() const { return hits + misses + dedup_joins; }
  /// Fraction of requests not paying a fresh computation, in [0, 1]
  /// (0 when no requests were served).
  double HitRate() const;
  /// Seconds spent computing scores (the cache-miss cost).
  double ComputeSeconds() const {
    return static_cast<double>(compute_ns) * 1e-9;
  }
  /// One-line summary, e.g.
  /// "1234 hits / 56 misses / 7 joins (hit rate 95.1%), 0 evictions,
  ///  compute 1.23s".
  std::string ToString() const;
  /// Machine-readable form for the `kStats` network endpoint and the
  /// benches' `--stats`/`--json` output, e.g.
  /// `{"hits":1234,...,"hit_rate":0.951,"compute_seconds":1.23}`.
  std::string ToJson() const;
};

/// Thread-safe counters of a scoring service. All mutators are lock-free
/// atomics so they can sit on the hot path of every request; `snapshot`
/// reads each counter individually (the snapshot is not required to be a
/// single consistent instant, which is fine for reporting).
class ServiceStats {
 public:
  void RecordHit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void RecordMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }
  void RecordDedupJoin() {
    dedup_joins_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordEviction() { evictions_.fetch_add(1, std::memory_order_relaxed); }
  void RecordComputeNs(std::uint64_t ns) {
    compute_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  ServiceStatsSnapshot snapshot() const;

 private:
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> dedup_joins_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> compute_ns_{0};
};

}  // namespace subex

#endif  // SUBEX_SERVE_SERVICE_STATS_H_
