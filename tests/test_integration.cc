// End-to-end pipeline tests: detector x explainer grids running on planted
// ground truth, verifying the qualitative behaviours the paper reports.

#include <gtest/gtest.h>

#include "core/ground_truth_builder.h"
#include "core/pipeline.h"
#include "core/testbed.h"
#include "data/generators.h"
#include "detect/detector.h"
#include "explain/beam.h"
#include "explain/hics.h"
#include "explain/lookout.h"
#include "explain/refout.h"

namespace subex {
namespace {

// A small subspace-outlier dataset shared by the integration tests.
const SyntheticDataset& SubspaceData() {
  static const SyntheticDataset* const kData = [] {
    HicsGeneratorConfig config;
    config.num_points = 300;
    config.subspace_dims = {2, 3, 2};
    config.seed = 123;
    return new SyntheticDataset(GenerateHicsDataset(config));
  }();
  return *kData;
}

// Every (detector, point-explainer) pair must recover the planted 2d
// subspaces on an easy subspace-outlier dataset with decent MAP.
class PointGridTest
    : public ::testing::TestWithParam<
          std::tuple<DetectorKind, PointExplainerKind>> {};

TEST_P(PointGridTest, RecoversEasyTwoDimensionalExplanations) {
  const auto [detector_kind, explainer_kind] = GetParam();
  TestbedProfile profile = TestbedProfile::Quick();
  profile.beam_width = 20;
  profile.refout_pool_size = 60;
  profile.iforest_trees = 50;
  profile.iforest_repetitions = 2;
  const auto detector = MakeTestbedDetector(detector_kind, profile);
  const auto explainer =
      MakeTestbedPointExplainer(explainer_kind, profile);

  const SyntheticDataset& d = SubspaceData();
  PipelineOptions options;
  options.max_points = 6;
  ScoringService service(*detector, d.dataset,
                         {.enable_cache = false, .cache = {}});
  const PipelineResult result = RunPointExplanationPipeline(
      service, d.ground_truth, *explainer, 2, options);
  EXPECT_EQ(result.num_points, 6);
  EXPECT_GT(result.map, 0.5) << result.detector_name << " + "
                             << result.explainer_name;
  EXPECT_GT(result.mean_recall, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, PointGridTest,
    ::testing::Combine(::testing::ValuesIn(AllDetectorKinds()),
                       ::testing::Values(PointExplainerKind::kBeam,
                                         PointExplainerKind::kRefOut)),
    [](const auto& info) {
      return std::string(DetectorKindName(std::get<0>(info.param))) + "_" +
             PointExplainerKindName(std::get<1>(info.param));
    });

// Every (detector, summarizer) pair must cover the planted 2d subspaces.
class SummaryGridTest
    : public ::testing::TestWithParam<
          std::tuple<DetectorKind, SummarizerKind>> {};

TEST_P(SummaryGridTest, CoversEasyTwoDimensionalSummaries) {
  const auto [detector_kind, summarizer_kind] = GetParam();
  TestbedProfile profile = TestbedProfile::Quick();
  profile.hics_candidate_cutoff = 50;
  profile.hics_mc_iterations = 30;
  profile.iforest_trees = 50;
  profile.iforest_repetitions = 2;
  const auto detector = MakeTestbedDetector(detector_kind, profile);
  const auto summarizer = MakeTestbedSummarizer(summarizer_kind, profile);

  const SyntheticDataset& d = SubspaceData();
  ScoringService service(*detector, d.dataset,
                         {.enable_cache = false, .cache = {}});
  const PipelineResult result =
      RunSummarizationPipeline(service, d.ground_truth, *summarizer, 2);
  EXPECT_GT(result.num_points, 0);
  EXPECT_GT(result.mean_recall, 0.5)
      << result.detector_name << " + " << result.explainer_name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, SummaryGridTest,
    ::testing::Combine(::testing::ValuesIn(AllDetectorKinds()),
                       ::testing::Values(SummarizerKind::kLookOut,
                                         SummarizerKind::kHics)),
    [](const auto& info) {
      return std::string(DetectorKindName(std::get<0>(info.param))) + "_" +
             SummarizerKindName(std::get<1>(info.param));
    });

// Qualitative shape of §4.1: on *full-space* outliers, Beam+LOF is highly
// effective while RefOut collapses (the random-projection discrepancy
// cannot single out features when every feature matters).
TEST(PaperShapeTest, FullSpaceOutliersBeamBeatsRefOut) {
  FullSpaceGeneratorConfig config;
  config.num_points = 150;
  config.num_features = 12;
  config.num_outliers = 15;
  config.seed = 9;
  const SyntheticDataset generated = GenerateFullSpaceDataset(config);
  const auto lof = MakeDetector(DetectorKind::kLof);
  GroundTruthBuilderOptions gt_options;
  gt_options.min_dim = 2;
  gt_options.max_dim = 2;
  ScoringService service(*lof, generated.dataset,
                         {.enable_cache = false, .cache = {}});
  const GroundTruth gt =
      BuildGroundTruthByExhaustiveSearch(service, gt_options);

  Beam::Options beam_options;
  beam_options.beam_width = 20;
  const Beam beam(beam_options);
  RefOut::Options refout_options;
  refout_options.pool_size = 60;
  refout_options.beam_width = 20;
  const RefOut refout(refout_options);
  PipelineOptions options;
  options.max_points = 8;

  const PipelineResult beam_result =
      RunPointExplanationPipeline(service, gt, beam, 2, options);
  const PipelineResult refout_result =
      RunPointExplanationPipeline(service, gt, refout, 2, options);
  EXPECT_GT(beam_result.map, 0.8);
  EXPECT_GT(beam_result.map, refout_result.map + 0.2);
}

// Qualitative shape of §4.2: HiCS collapses on full-space outliers (no
// correlation signal singles out the relevant subspaces), while LookOut
// with LOF stays effective in recall terms.
TEST(PaperShapeTest, FullSpaceOutliersLookOutBeatsHics) {
  FullSpaceGeneratorConfig config;
  config.num_points = 150;
  config.num_features = 10;
  config.num_outliers = 15;
  config.seed = 11;
  const SyntheticDataset generated = GenerateFullSpaceDataset(config);
  const auto lof = MakeDetector(DetectorKind::kLof);
  GroundTruthBuilderOptions gt_options;
  gt_options.min_dim = 2;
  gt_options.max_dim = 2;
  ScoringService service(*lof, generated.dataset,
                         {.enable_cache = false, .cache = {}});
  const GroundTruth gt =
      BuildGroundTruthByExhaustiveSearch(service, gt_options);

  LookOut::Options lookout_options;
  lookout_options.budget = 45;  // All candidates affordable: C(10,2) = 45.
  const LookOut lookout(lookout_options);
  Hics::Options hics_options;
  hics_options.candidate_cutoff = 45;
  hics_options.mc_iterations = 30;
  hics_options.max_results = 10;  // Forces HiCS to commit to few subspaces.
  const Hics hics(hics_options);

  const PipelineResult lookout_result =
      RunSummarizationPipeline(service, gt, lookout, 2);
  const PipelineResult hics_result =
      RunSummarizationPipeline(service, gt, hics, 2);
  EXPECT_GT(lookout_result.mean_recall, hics_result.mean_recall - 1e-9);
  EXPECT_GT(lookout_result.map, 0.1);
}

}  // namespace
}  // namespace subex
