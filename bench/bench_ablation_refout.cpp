// Ablation: RefOut design choices (DESIGN.md "Random subspace projection").
//
//  (1) Pool size: the paper uses 100 random projections; MAP as a function
//      of the pool size shows how much statistical power the Welch
//      discrepancy needs.
//  (2) Projection ratio: the paper draws projections of 70% of the
//      dataset's dimensionality; smaller projections make outliers easier
//      to see but cover candidate subspaces less often.
//
// Usage: bench_ablation_refout [--full] [--seed N]

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace subex;
  const TestbedProfile profile =
      bench::ParseProfile(argc, argv, "Ablation: RefOut design choices");

  HicsGeneratorConfig config;
  config.num_points = profile.name == "quick" ? 300 : 1000;
  config.subspace_dims = {2, 3, 2, 3, 4};  // 14 features, the 35% regime.
  config.seed = profile.seed;
  const SyntheticDataset d = GenerateHicsDataset(config);
  const Lof lof(15);
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  PipelineOptions pipeline_options;
  pipeline_options.max_points =
      profile.name == "quick" ? 6 : profile.max_points_per_cell;

  std::printf("dataset: %zu pts, %zu feats (subspace outliers)\n\n",
              d.dataset.num_points(), d.dataset.num_features());

  std::printf("pool size sweep (projection ratio 0.7, Welch, dim 2 & 3)\n");
  TextTable pool_table;
  pool_table.SetHeader({"pool", "MAP@2d", "MAP@3d", "time@3d"});
  for (int pool : {10, 25, 50, 100, 200}) {
    RefOut::Options options;
    options.pool_size = pool;
    options.beam_width = profile.beam_width;
    options.seed = profile.seed;
    const RefOut refout(options);
    const PipelineResult r2 = RunPointExplanationPipeline(
        service, d.ground_truth, refout, 2, pipeline_options);
    const PipelineResult r3 = RunPointExplanationPipeline(
        service, d.ground_truth, refout, 3, pipeline_options);
    pool_table.AddRow({std::to_string(pool), FormatDouble(r2.map),
                       FormatDouble(r3.map), FormatSeconds(r3.seconds)});
  }
  std::printf("%s\n", pool_table.Render().c_str());

  std::printf("projection ratio sweep (pool %d, Welch, dim 3)\n",
              profile.refout_pool_size);
  TextTable ratio_table;
  ratio_table.SetHeader({"ratio", "MAP@3d", "recall@3d", "time"});
  for (double ratio : {0.3, 0.5, 0.7, 0.9}) {
    RefOut::Options options;
    options.pool_size = profile.refout_pool_size;
    options.beam_width = profile.beam_width;
    options.projection_ratio = ratio;
    options.seed = profile.seed;
    const RefOut refout(options);
    const PipelineResult r = RunPointExplanationPipeline(
        service, d.ground_truth, refout, 3, pipeline_options);
    ratio_table.AddRow({FormatDouble(ratio, 1), FormatDouble(r.map),
                        FormatDouble(r.mean_recall),
                        FormatSeconds(r.seconds)});
  }
  std::printf("%s\n", ratio_table.Render().c_str());

  std::printf(
      "expectation: MAP rises then saturates with the pool size (each\n"
      "candidate needs enough with/without samples for the t-test); the\n"
      "0.7 projection ratio is a sweet spot -- very low ratios rarely\n"
      "cover multi-feature candidates, very high ratios mask outliers in\n"
      "near-full-space projections.\n");
  return 0;
}
