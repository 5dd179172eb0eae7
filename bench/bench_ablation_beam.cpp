// Ablation: Beam design choices (DESIGN.md "Stage-wise subspace search").
//
//  (1) Beam width: the paper uses 100; MAP and cost as the width shrinks
//      shows how greedy the stage-wise search can afford to be.
//  (2) Result mode: Beam_FX (fixed-dimensionality output, the paper's
//      comparison variant) vs. the original global-best list.
//
// Usage: bench_ablation_beam [--full] [--seed N]

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace subex;
  const TestbedProfile profile =
      bench::ParseProfile(argc, argv, "Ablation: Beam design choices");

  HicsGeneratorConfig config;
  config.num_points = profile.name == "quick" ? 300 : 1000;
  config.subspace_dims = {2, 2, 3, 3, 4, 4, 5};  // 23 features, 21% regime.
  config.seed = profile.seed;
  const SyntheticDataset d = GenerateHicsDataset(config);
  const Lof lof(15);
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  PipelineOptions pipeline_options;
  pipeline_options.max_points = profile.name == "quick" ? 5 : 0;

  std::printf("dataset: %zu pts, %zu feats (subspace outliers)\n\n",
              d.dataset.num_points(), d.dataset.num_features());

  std::printf("beam width sweep (LOF, Beam_FX)\n");
  TextTable width_table;
  width_table.SetHeader({"width", "MAP@2d", "MAP@3d", "MAP@4d", "time@4d",
                         "bound@4d (subspaces)"});
  for (int width : {2, 5, 10, 25, 50, 100}) {
    Beam::Options options;
    options.beam_width = width;
    const Beam beam(options);
    std::vector<std::string> row = {std::to_string(width)};
    double t4 = 0.0;
    for (int dim : {2, 3, 4}) {
      const PipelineResult r = RunPointExplanationPipeline(
          service, d.ground_truth, beam, dim, pipeline_options);
      row.push_back(FormatDouble(r.map));
      if (dim == 4) t4 = r.seconds;
    }
    row.push_back(FormatSeconds(t4));
    row.push_back(std::to_string(Beam::CountScoredSubspaces(
        static_cast<int>(d.dataset.num_features()), 4, width)));
    width_table.AddRow(std::move(row));
  }
  std::printf("%s\n", width_table.Render().c_str());

  std::printf("result mode: Beam_FX vs. global-best (width %d, dim 4)\n",
              profile.beam_width);
  TextTable mode_table;
  mode_table.SetHeader({"mode", "MAP@4d", "recall@4d"});
  for (Beam::ResultMode mode :
       {Beam::ResultMode::kFixedDim, Beam::ResultMode::kGlobalBest}) {
    Beam::Options options;
    options.beam_width = profile.beam_width;
    options.result_mode = mode;
    const Beam beam(options);
    const PipelineResult r = RunPointExplanationPipeline(
        service, d.ground_truth, beam, 4, pipeline_options);
    mode_table.AddRow(
        {mode == Beam::ResultMode::kFixedDim ? "Beam_FX" : "global-best",
         FormatDouble(r.map), FormatDouble(r.mean_recall)});
  }
  std::printf("%s\n", mode_table.Render().c_str());

  std::printf(
      "expectation: MAP saturates well below width 100 at low explanation\n"
      "dims but keeps improving with width at 4d (more lower-dim parents\n"
      "must survive); global-best dilutes fixed-dim MAP because lower-dim\n"
      "subspaces outrank the 4d ones for subspace outliers' projections.\n");
  return 0;
}
