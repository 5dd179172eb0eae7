// Point explanation workflow: Beam vs RefOut across all three detectors on
// a dataset with subspace outliers (the paper's §4.1 scenario, miniature).
//
// Generates a HiCS-style dataset whose feature space is partitioned into
// correlated subspaces with 5 planted outliers each, runs every
// (detector, point explainer) pair, and reports per-pair MAP / Mean Recall
// against the planted ground truth.
//
// Run: ./explain_points [seed]

#include <cstdio>
#include <cstdlib>

#include "subex/subex.h"

int main(int argc, char** argv) {
  using namespace subex;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                      : 7;

  HicsGeneratorConfig config;
  config.num_points = 400;
  config.subspace_dims = {2, 3, 2, 3};  // 10 features, 4 relevant subspaces.
  config.seed = seed;
  const SyntheticDataset d = GenerateHicsDataset(config);
  std::printf("dataset %s: %zu points, %zu features, %zu outliers in %zu "
              "relevant subspaces\n\n",
              d.name.c_str(), d.dataset.num_points(),
              d.dataset.num_features(), d.dataset.outlier_indices().size(),
              d.relevant_subspaces.size());

  TestbedProfile profile = TestbedProfile::Quick();
  profile.seed = seed;

  TextTable table;
  table.SetHeader({"explainer", "detector", "dim", "MAP", "mean recall",
                   "points", "time"});
  for (int dim : {2, 3}) {
    for (PointExplainerKind explainer_kind :
         {PointExplainerKind::kBeam, PointExplainerKind::kRefOut}) {
      const auto explainer =
          MakeTestbedPointExplainer(explainer_kind, profile);
      for (DetectorKind detector_kind : AllDetectorKinds()) {
        const auto detector = MakeTestbedDetector(detector_kind, profile);
        ScoringService service(*detector, d.dataset,
                               {.enable_cache = false, .cache = {}});
        const PipelineResult r = RunPointExplanationPipeline(
            service, d.ground_truth, *explainer, dim);
        table.AddRow({r.explainer_name, r.detector_name,
                      std::to_string(dim), FormatDouble(r.map),
                      FormatDouble(r.mean_recall),
                      std::to_string(r.num_points),
                      FormatSeconds(r.seconds)});
      }
    }
  }
  std::printf("%s\n", table.Render().c_str());

  // Show one concrete explanation end to end.
  const int point = d.dataset.outlier_indices().front();
  const auto lof = MakeTestbedDetector(DetectorKind::kLof, profile);
  const auto beam = MakeTestbedPointExplainer(PointExplainerKind::kBeam,
                                              profile);
  const Subspace truth = d.ground_truth.RelevantFor(point).front();
  const RankedSubspaces ranked = beam->Explain(
      d.dataset, *lof, point, static_cast<int>(truth.size()));
  std::printf("example: point %d, ground truth %s, Beam+LOF top pick %s\n",
              point, truth.ToString().c_str(),
              ranked.subspaces.front().ToString().c_str());
  return 0;
}
