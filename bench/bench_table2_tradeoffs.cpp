// Regenerates Table 2: the best (point explanation, summarization)
// pipeline per explanation dimensionality x relevant-feature ratio, in
// Pareto (effectiveness, efficiency) order with the paper's preference for
// generic algorithms on ties.
//
// The ratio columns map to datasets exactly as in the paper:
//   100% -> the real(-like) datasets (Breast-like is used as the
//           representative, as all three behave alike),
//   35%  -> HiCS 14d, 21% -> HiCS 23d, 12% -> HiCS 39d.
//
// Paper reference (Table 2):
//   2d:  Beam+LOF / LookOut+LOF | RefOut+LOF / LookOut+LOF (35,21,12%)
//   3d:  same, except 12% -> Beam+FastABOD / LookOut+LOF
//   4d:  Beam+LOF / LookOut+LOF | RefOut+LOF / LookOut+LOF (35%) |
//        Beam+iForest / HiCS+LOF (21,12%)
//   5d:  Beam+LOF / LookOut+LOF | RefOut+LOF / LookOut+LOF (35%) |
//        HiCS+LOF only (21,12%)
//
// Usage: bench_table2_tradeoffs [--full] [--seed N]

#include <map>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace subex;
  const TestbedProfile profile = bench::ParseProfile(
      argc, argv, "Table 2: effectiveness/efficiency trade-offs");
  const std::vector<TestbedDataset> suite =
      bench::BuildFullTestbed(profile, /*synthetic=*/true, /*real=*/true);

  // Column datasets in the paper's order: 100% ratio (breast-like) first,
  // then decreasing relevant-feature ratios (14d, 23d, 39d).
  std::vector<const TestbedDataset*> columns;
  for (const char* name :
       {"breast_like", "hics_14d", "hics_23d", "hics_39d"}) {
    for (const TestbedDataset& entry : suite) {
      if (entry.data.name == name) columns.push_back(&entry);
    }
  }

  PipelineOptions pipeline_options;
  pipeline_options.max_points = profile.max_points_per_cell;

  TextTable table;
  std::vector<std::string> header = {"expl dim"};
  for (const TestbedDataset* entry : columns) {
    header.push_back(
        entry->data.name + " (" +
        FormatDouble(100.0 * entry->relevant_feature_ratio, 0) + "%)");
  }
  table.SetHeader(header);

  for (int dim = 2; dim <= profile.max_explanation_dim; ++dim) {
    std::vector<std::string> row = {std::to_string(dim) + "d"};
    for (const TestbedDataset* entry : columns) {
      const Dataset& data = entry->data.dataset;
      const GroundTruth& gt = entry->data.ground_truth;
      if (gt.PointsExplainedAtDimension(dim).empty()) {
        row.push_back("(no gt)");
        continue;
      }

      std::vector<PipelineScore> point_scores;
      std::vector<PipelineScore> summary_scores;
      for (DetectorKind detector_kind : AllDetectorKinds()) {
        const auto detector = MakeTestbedDetector(detector_kind, profile);
        // Uncached and serial: the pick below compares runtimes, and a
        // cache warmed by an earlier pipeline would favour later ones.
        ScoringService service(*detector, data,
                               {.enable_cache = false, .cache = {}});
        for (PointExplainerKind kind :
             {PointExplainerKind::kBeam, PointExplainerKind::kRefOut}) {
          const int points = bench::CellPoints(profile, gt, dim);
          if (bench::EstimatePointCellScores(profile, kind,
                                             data.num_features(), dim,
                                             points) >
              bench::ScoreBudget(profile, detector_kind)) {
            continue;
          }
          const auto explainer = MakeTestbedPointExplainer(kind, profile);
          const PipelineResult r = RunPointExplanationPipeline(
              service, gt, *explainer, dim, pipeline_options);
          point_scores.push_back({r.explainer_name, r.detector_name, r.map,
                                  r.seconds, /*generic=*/true});
        }
        for (SummarizerKind kind :
             {SummarizerKind::kLookOut, SummarizerKind::kHics}) {
          if (bench::EstimateSummaryCellScores(profile, kind,
                                               data.num_features(), dim) >
              bench::ScoreBudget(profile, detector_kind)) {
            continue;
          }
          const auto summarizer = MakeTestbedSummarizer(kind, profile);
          const PipelineResult r =
              RunSummarizationPipeline(service, gt, *summarizer, dim);
          // HiCS' correlation heuristic works only under specific data
          // conditions -> not generic (the paper's Table 2 rule).
          summary_scores.push_back({r.explainer_name, r.detector_name,
                                    r.map, r.seconds,
                                    /*generic=*/kind ==
                                        SummarizerKind::kLookOut});
        }
      }

      std::string cell;
      PipelineScore best;
      if (SelectBestTradeoff(point_scores, {}, &best)) {
        cell += best.Label();
      }
      if (SelectBestTradeoff(summary_scores, {}, &best)) {
        if (!cell.empty()) cell += " / ";
        cell += best.Label();
      }
      row.push_back(cell.empty() ? "(none effective)" : cell);
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf(
      "paper expectation: Beam+LOF & LookOut+LOF at 100%% ratio for every\n"
      "dim; RefOut+LOF & LookOut+LOF at 35%%; Beam with iForest/FastABOD\n"
      "for 3d-4d at low ratios; HiCS+LOF the only effective option for\n"
      "4d-5d explanations at 21%%/12%% ratios.\n");
  return 0;
}
