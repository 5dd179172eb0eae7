#include "serve/scoring_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "detect/fast_abod.h"
#include "detect/isolation_forest.h"
#include "detect/lof.h"
#include "explain/beam.h"
#include "subspace/enumeration.h"

namespace subex {
namespace {

SyntheticDataset SmallHics(std::uint64_t seed = 77) {
  HicsGeneratorConfig config;
  config.num_points = 150;
  config.subspace_dims = {2, 2, 3};  // 7 features.
  config.seed = seed;
  return GenerateHicsDataset(config);
}

/// Counts `Score` invocations and, when given a `release` gate, blocks the
/// computing thread until the gate opens — making the single-flight race
/// window deterministic.
class CountingDetector : public Detector {
 public:
  explicit CountingDetector(const Detector& inner,
                            std::function<bool()> release = nullptr)
      : inner_(inner), release_(std::move(release)) {}

  std::string name() const override { return inner_.name(); }

  std::vector<double> Score(const Dataset& data,
                            const Subspace& subspace) const override {
    computes_.fetch_add(1);
    if (release_) {
      while (!release_()) std::this_thread::yield();
    }
    return inner_.Score(data, subspace);
  }

  int computes() const { return computes_.load(); }

 private:
  const Detector& inner_;
  std::function<bool()> release_;
  mutable std::atomic<int> computes_{0};
};

TEST(ScoringServiceTest, CachedResultBitwiseEqualsDirectScoreStandardized) {
  const SyntheticDataset d = SmallHics();
  const Lof lof(15);
  const FastAbod abod(10);
  IsolationForest::Options forest_options;
  forest_options.num_trees = 20;
  forest_options.num_repetitions = 2;
  const IsolationForest forest(forest_options);
  const std::vector<const Detector*> detectors = {&lof, &abod, &forest};

  for (const Detector* detector : detectors) {
    ScoringService service(*detector, d.dataset);
    for (const Subspace& s : EnumerateSubspaces(7, 2)) {
      const std::vector<double> direct =
          ScoreStandardized(*detector, d.dataset, s);
      const ScoreVectorPtr first = service.Score(s);   // Miss: computes.
      const ScoreVectorPtr second = service.Score(s);  // Hit: cached.
      ASSERT_EQ(*first, direct) << detector->name() << " " << s.ToString();
      ASSERT_EQ(second, first) << "hit must serve the identical vector";
    }
    const ServiceStatsSnapshot stats = service.stats();
    EXPECT_EQ(stats.misses, 21u);  // C(7,2).
    EXPECT_EQ(stats.hits, 21u);
    EXPECT_GT(stats.compute_ns, 0u);
  }
}

TEST(ScoringServiceTest, StochasticDetectorIsDeterministicAcrossServices) {
  const SyntheticDataset d = SmallHics();
  IsolationForest::Options options;
  options.num_trees = 20;
  options.seed = 5;
  const IsolationForest forest(options);
  ScoringService a(forest, d.dataset);
  ScoringService b(forest, d.dataset);
  const Subspace s({1, 4});
  EXPECT_EQ(*a.Score(s), *b.Score(s));
}

TEST(ScoringServiceTest, SingleFlightComputesOnceUnderConcurrentRequests) {
  const SyntheticDataset d = SmallHics();
  const Lof lof(15);
  constexpr int kThreads = 8;
  std::atomic<int> arrivals{0};
  const CountingDetector counting(
      lof, [&] { return arrivals.load() >= kThreads; });
  ScoringService service(counting, d.dataset);

  const Subspace s({0, 3});
  std::vector<ScoreVectorPtr> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrivals.fetch_add(1);
      results[t] = service.Score(s);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counting.computes(), 1) << "single-flight must compute once";
  const ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.dedup_joins, kThreads - 1u);
  for (const ScoreVectorPtr& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(*r, *results[0]);
  }
}

TEST(ScoringServiceTest, SingleFlightAlsoDedupsWithCacheDisabled) {
  const SyntheticDataset d = SmallHics();
  const Lof lof(15);
  constexpr int kThreads = 4;
  // With no cache to fall back on, a thread that reached `Score` only after
  // the flight ended would compute again, so the leader waits until every
  // other thread has joined its flight, not merely started.
  const ScoringService* joined = nullptr;
  const CountingDetector counting(lof, [&] {
    return joined->stats().dedup_joins >= kThreads - 1u;
  });
  ScoringServiceOptions options;
  options.enable_cache = false;
  ScoringService service(counting, d.dataset, options);
  joined = &service;

  const Subspace s({2, 5});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      EXPECT_EQ(*service.Score(s), ScoreStandardized(lof, d.dataset, s));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counting.computes(), 1);
  // With no cache, a later identical request recomputes.
  service.Score(s);
  EXPECT_EQ(counting.computes(), 2);
}

TEST(ScoringServiceTest, StressOverlappingWritersMatchDirectScores) {
  const SyntheticDataset d = SmallHics();
  IsolationForest::Options forest_options;
  forest_options.num_trees = 10;  // Stochastic: seeded per subspace.
  const IsolationForest forest(forest_options);

  // Tiny budget so the stress continuously evicts and recomputes.
  ScoringServiceOptions options;
  options.cache.num_shards = 4;
  options.cache.max_entries = 8;
  ScoringService service(forest, d.dataset, options);

  const std::vector<Subspace> subspaces = EnumerateSubspaces(7, 2);
  std::vector<std::vector<double>> expected;
  expected.reserve(subspaces.size());
  for (const Subspace& s : subspaces) {
    expected.push_back(ScoreStandardized(forest, d.dataset, s));
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const int num_threads = static_cast<int>(hw == 0 ? 4 : std::min(hw, 8u));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      // Overlapping coverage: every thread walks all subspaces, phase-
      // shifted so threads collide on different keys at different times.
      for (int round = 0; round < 6; ++round) {
        for (std::size_t j = 0; j < subspaces.size(); ++j) {
          const std::size_t i = (j + t * 7 + round) % subspaces.size();
          const ScoreVectorPtr got = service.Score(subspaces[i]);
          if (*got != expected[i]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "cached scores must be byte-identical to direct ScoreStandardized";
  const ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.Requests(),
            static_cast<std::uint64_t>(num_threads) * 6u * subspaces.size());
  EXPECT_GT(stats.evictions, 0u) << "budget of 8 must evict under 21 keys";
}

TEST(CachingDetectorTest, AdapterIsBitwiseEquivalentForExplainers) {
  const SyntheticDataset d = SmallHics();
  const Lof lof(15);
  ScoringService service(lof, d.dataset);
  const CachingDetector caching(service);
  EXPECT_EQ(caching.name(), "LOF");
  EXPECT_TRUE(caching.ReturnsStandardizedScores());

  const Subspace s({1, 2});
  EXPECT_EQ(ScoreStandardized(caching, d.dataset, s),
            ScoreStandardized(lof, d.dataset, s));

  const Beam beam;
  const int point = d.dataset.outlier_indices().front();
  const RankedSubspaces direct = beam.Explain(d.dataset, lof, point, 2);
  const RankedSubspaces cached = beam.Explain(d.dataset, caching, point, 2);
  ASSERT_EQ(cached.subspaces.size(), direct.subspaces.size());
  for (std::size_t i = 0; i < direct.subspaces.size(); ++i) {
    EXPECT_EQ(cached.subspaces[i], direct.subspaces[i]);
    EXPECT_EQ(cached.scores[i], direct.scores[i]);
  }
  EXPECT_GT(service.stats().Requests(), 0u);
}

TEST(ScoringServiceTest, TinyCacheStaysCorrectUnderEviction) {
  const SyntheticDataset d = SmallHics();
  const Lof lof(15);
  ScoringServiceOptions options;
  options.cache.num_shards = 1;
  options.cache.max_entries = 2;
  ScoringService service(lof, d.dataset, options);
  const std::vector<Subspace> subspaces = EnumerateSubspaces(7, 2);
  for (int round = 0; round < 3; ++round) {
    for (const Subspace& s : subspaces) {
      EXPECT_EQ(*service.Score(s), ScoreStandardized(lof, d.dataset, s));
    }
  }
  EXPECT_GT(service.stats().evictions, 0u);
}

TEST(ServiceStatsTest, SnapshotCountsAndFormats) {
  ServiceStats stats;
  stats.RecordHit();
  stats.RecordHit();
  stats.RecordMiss();
  stats.RecordDedupJoin();
  stats.RecordEviction();
  stats.RecordComputeNs(1500000000ull);
  const ServiceStatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.hits, 2u);
  EXPECT_EQ(snap.misses, 1u);
  EXPECT_EQ(snap.dedup_joins, 1u);
  EXPECT_EQ(snap.evictions, 1u);
  EXPECT_EQ(snap.Requests(), 4u);
  EXPECT_DOUBLE_EQ(snap.HitRate(), 0.75);
  EXPECT_DOUBLE_EQ(snap.ComputeSeconds(), 1.5);
  EXPECT_NE(snap.ToString().find("hit rate 75.0%"), std::string::npos);
  EXPECT_EQ(snap.ToJson(),
            "{\"hits\":2,\"misses\":1,\"dedup_joins\":1,\"evictions\":1,"
            "\"requests\":4,\"hit_rate\":0.75,\"compute_seconds\":1.5}");
}

}  // namespace
}  // namespace subex
