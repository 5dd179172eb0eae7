// Regenerates Figure 9: MAP of the point explanation pipelines
// (Beam / RefOut x LOF / Fast ABOD / iForest) for explanations of
// increasing dimensionality, on the five HiCS synthetic splits (panels
// a-e) and the three real-dataset stand-ins (panels f-h).
//
// Paper expectations (shape, not absolute values):
//  * 14d synthetic: RefOut+LOF ~ optimal at all dims; Beam+LOF degrades at
//    high explanation dims.
//  * 23d+ synthetic: Beam pairs better with Fast ABOD / iForest than with
//    LOF (outliers are masked in low-d projections); everything collapses
//    for 4d-5d explanations on the 70d/100d splits.
//  * real datasets (full-space outliers): Beam+LOF ~ optimal everywhere;
//    RefOut ~ 0 regardless of the detector.
//
// Cells whose estimated cost exceeds the per-detector budget are skipped
// and printed as "-", mirroring the configurations the paper did not run.
//
// Scoring routes through a per-(dataset, detector) ScoringService shared
// across both explainers and every explanation dimensionality; each dataset
// section ends with the cache hit-rate stats (`--no-cache` disables the
// cache, `--threads N` sizes the worker pool).
//
// Usage: bench_fig9_point_explainers [--full] [--seed N] [--threads N]
//                                    [--no-cache]

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace subex;
  const TestbedProfile profile = bench::ParseServingProfile(
      argc, argv, "Figure 9: MAP of point explanation pipelines");
  ThreadPool pool(static_cast<std::size_t>(profile.num_threads));
  const std::vector<TestbedDataset> suite =
      bench::BuildFullTestbed(profile, /*synthetic=*/true, /*real=*/true,
                              &pool);

  PipelineOptions pipeline_options;
  pipeline_options.max_points = profile.max_points_per_cell;

  for (const TestbedDataset& entry : suite) {
    const Dataset& data = entry.data.dataset;
    const GroundTruth& gt = entry.data.ground_truth;
    std::printf("--- %s (%zu pts, %zu feats, %s outliers) ---\n",
                entry.data.name.c_str(), data.num_points(),
                data.num_features(),
                entry.subspace_outliers ? "subspace" : "full-space");

    TextTable table;
    std::vector<std::string> header = {"pipeline"};
    for (int dim : entry.explanation_dims) {
      header.push_back("MAP@" + std::to_string(dim) + "d");
      header.push_back("rec@" + std::to_string(dim) + "d");
    }
    table.SetHeader(header);

    bench::DetectorServices services =
        bench::MakeDetectorServices(profile, data, &pool);

    for (PointExplainerKind explainer_kind :
         {PointExplainerKind::kBeam, PointExplainerKind::kRefOut}) {
      const auto explainer =
          MakeTestbedPointExplainer(explainer_kind, profile);
      for (DetectorKind detector_kind : AllDetectorKinds()) {
        std::vector<std::string> row = {
            std::string(PointExplainerKindName(explainer_kind)) + "+" +
            DetectorKindName(detector_kind)};
        for (int dim : entry.explanation_dims) {
          const int points = bench::CellPoints(profile, gt, dim);
          const std::uint64_t cost = bench::EstimatePointCellScores(
              profile, explainer_kind, data.num_features(), dim, points);
          if (points == 0 ||
              cost > bench::ScoreBudget(profile, detector_kind)) {
            row.push_back("-");
            row.push_back("-");
            continue;
          }
          const PipelineResult r = RunPointExplanationPipeline(
              services.For(detector_kind), gt, *explainer, dim,
              pipeline_options);
          row.push_back(FormatDouble(r.map));
          row.push_back(FormatDouble(r.mean_recall));
        }
        table.AddRow(std::move(row));
      }
    }
    std::printf("%s\n", table.Render().c_str());
    bench::PrintServiceStats(services);
    std::printf("\n");
  }

  std::printf(
      "paper expectation: on subspace outliers RefOut+LOF leads at low\n"
      "dataset dims and Beam pairs better with FastABOD/iForest as dims\n"
      "grow; on full-space outliers Beam+LOF ~ 1.0 and RefOut ~ 0.\n"
      "cells marked '-' exceeded the cost budget (the paper likewise did\n"
      "not run its most expensive configurations).\n");
  return 0;
}
