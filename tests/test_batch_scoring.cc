// Batch vs serial: every explainer that scores its stages through
// ScoreStandardizedEach must return the same ranking, bit for bit, whether
// the batches run serially (no current pool) or on a 1-, 2- or 4-thread pool
// installed with ThreadPool::Scope, through a bare detector and through a
// ScoringService.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "data/generators.h"
#include "detect/lof.h"
#include "explain/beam.h"
#include "explain/dimension_refinement.h"
#include "explain/hics.h"
#include "explain/lookout.h"
#include "explain/refout.h"
#include "serve/scoring_service.h"

namespace subex {
namespace {

/// Forwards to `inner` and remembers every distinct subspace requested.
class RecordingDetector final : public Detector {
 public:
  explicit RecordingDetector(const Detector& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::vector<double> Score(const Dataset& data,
                            const Subspace& subspace) const override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      requested_.insert(subspace);
    }
    return inner_.Score(data, subspace);
  }
  bool ReturnsStandardizedScores() const override {
    return inner_.ReturnsStandardizedScores();
  }

  std::size_t unique_requests() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return requested_.size();
  }

 private:
  const Detector& inner_;
  mutable std::mutex mutex_;
  mutable std::unordered_set<Subspace, SubspaceHash> requested_;
};

const SyntheticDataset& Data() {
  static const SyntheticDataset data = [] {
    HicsGeneratorConfig config;
    config.num_points = 200;
    config.subspace_dims = {3, 2, 2};
    config.seed = 23;
    return GenerateHicsDataset(config);
  }();
  return data;
}

int FirstOutlier() { return Data().dataset.outlier_indices().front(); }

using Run = std::function<RankedSubspaces(const Detector&)>;

struct Case {
  std::string name;
  Run run;
};

std::vector<Case> Cases() {
  const Dataset& data = Data().dataset;
  const std::vector<int>& outliers = data.outlier_indices();
  std::vector<Case> cases;
  Beam::Options beam_options;
  beam_options.beam_width = 8;
  cases.push_back({"Beam", [&data, beam_options](const Detector& detector) {
                     return Beam(beam_options)
                         .Explain(data, detector, FirstOutlier(), 4);
                   }});
  RefOut::Options refout_options;
  refout_options.pool_size = 40;
  cases.push_back(
      {"RefOut", [&data, refout_options](const Detector& detector) {
         return RefOut(refout_options)
             .Explain(data, detector, FirstOutlier(), 3);
       }});
  cases.push_back({"LookOut", [&data, &outliers](const Detector& detector) {
                     return LookOut().Summarize(data, detector, outliers, 3);
                   }});
  Hics::Options hics_options;
  hics_options.candidate_cutoff = 12;
  hics_options.mc_iterations = 20;
  hics_options.ranking = Hics::Ranking::kDetector;
  cases.push_back(
      {"HiCS", [&data, &outliers, hics_options](const Detector& detector) {
         return Hics(hics_options).Summarize(data, detector, outliers, 3);
       }});
  cases.push_back({"RefineByDimensionalGain", [&data](const Detector&
                                                          detector) {
                     // The candidates come from a fixed serial run, so only
                     // the refinement's own batches vary.
                     static const RankedSubspaces candidates = [&data] {
                       const Lof lof(15);
                       Beam::Options options;
                       options.beam_width = 8;
                       return Beam(options).Explain(data, lof, FirstOutlier(),
                                                    3);
                     }();
                     DimensionRefinementOptions options;
                     options.max_candidates = 6;
                     return RefineByDimensionalGain(
                         data, detector, FirstOutlier(), candidates, options);
                   }});
  return cases;
}

void ExpectBitwiseEqual(const RankedSubspaces& want,
                        const RankedSubspaces& got, const std::string& where) {
  ASSERT_EQ(want.subspaces, got.subspaces) << where;
  ASSERT_EQ(want.scores.size(), got.scores.size()) << where;
  EXPECT_EQ(std::memcmp(want.scores.data(), got.scores.data(),
                        want.scores.size() * sizeof(double)),
            0)
      << where;
}

/// One run through a fresh ScoringService under the given current pool:
/// the ranking, plus the check that the service computed each distinct
/// requested subspace exactly once.
RankedSubspaces RunThroughService(const Run& run, ThreadPool* pool,
                                  const std::string& where) {
  const Lof lof(15);
  ScoringService service(lof, Data().dataset);
  const CachingDetector adapter(service);
  const RecordingDetector recorder(adapter);
  RankedSubspaces ranked;
  {
    const ThreadPool::Scope scope(pool);
    ranked = run(recorder);
  }
  EXPECT_EQ(service.stats().misses, recorder.unique_requests()) << where;
  EXPECT_EQ(service.stats().evictions, 0u) << where;
  return ranked;
}

class BatchScoringTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchScoringTest, PoolRunsMatchTheSerialRunBitwise) {
  const Case c = Cases()[GetParam()];
  const Lof lof(15);
  const RankedSubspaces serial = c.run(lof);
  ASSERT_FALSE(serial.empty()) << c.name;
  ExpectBitwiseEqual(serial, RunThroughService(c.run, nullptr, c.name),
                     c.name + " via service, serial");
  for (std::size_t threads : {1u, 2u, 4u}) {
    const std::string where = c.name + " on " + std::to_string(threads) +
                              " thread(s)";
    ThreadPool pool(threads);
    RankedSubspaces pooled;
    {
      const ThreadPool::Scope scope(&pool);
      pooled = c.run(lof);
    }
    ExpectBitwiseEqual(serial, pooled, where);
    ExpectBitwiseEqual(serial, RunThroughService(c.run, &pool, where),
                       where + " via service");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Explainers, BatchScoringTest, ::testing::Range<std::size_t>(0, 5),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return Cases()[info.param].name;
    });

}  // namespace
}  // namespace subex
