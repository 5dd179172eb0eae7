// Extension bench: predictive (surrogate) explanations vs subspace search
// -- the §6 future-work direction, implemented and measured.
//
// The paper argues that descriptive subspace search must re-run per point
// and proposes surrogate models "to overcome the high computation cost of
// subspace search per point". This bench quantifies that trade-off: MAP
// and per-point runtime of the SurrogateExplainer (one full-space detector
// call + a CART fit) against Beam and RefOut (thousands of per-subspace
// detector calls), plus the surrogate's score fidelity (R^2).
//
// Usage: bench_surrogate_explainer [--full] [--seed N]

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace subex;
  const TestbedProfile profile = bench::ParseProfile(
      argc, argv, "Extension: surrogate (predictive) explanations");

  HicsGeneratorConfig config;
  config.num_points = profile.name == "quick" ? 300 : 1000;
  config.subspace_dims = {2, 2, 3, 3, 4};
  config.seed = profile.seed;
  const SyntheticDataset d = GenerateHicsDataset(config);
  const Lof lof(15);
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  std::printf("dataset: %zu pts, %zu feats, %zu outliers\n",
              d.dataset.num_points(), d.dataset.num_features(),
              d.dataset.outlier_indices().size());

  const SurrogateExplainer surrogate;
  std::printf("surrogate fidelity vs LOF full-space scores (R^2): %.2f\n\n",
              surrogate.Fidelity(d.dataset, lof));

  PipelineOptions pipeline_options;
  pipeline_options.max_points = profile.name == "quick" ? 6 : 0;
  Beam::Options beam_options;
  beam_options.beam_width = profile.beam_width;
  const Beam beam(beam_options);
  RefOut::Options refout_options;
  refout_options.pool_size = profile.refout_pool_size;
  refout_options.beam_width = profile.beam_width;
  refout_options.seed = profile.seed;
  const RefOut refout(refout_options);

  TextTable table;
  table.SetHeader({"explainer", "dim", "MAP", "recall", "time/point"});
  for (int dim : {2, 3}) {
    for (const PointExplainer* explainer :
         {static_cast<const PointExplainer*>(&beam),
          static_cast<const PointExplainer*>(&refout),
          static_cast<const PointExplainer*>(&surrogate)}) {
      const PipelineResult r = RunPointExplanationPipeline(
          service, d.ground_truth, *explainer, dim, pipeline_options);
      table.AddRow({explainer->name(), std::to_string(dim),
                    FormatDouble(r.map), FormatDouble(r.mean_recall),
                    r.num_points > 0
                        ? FormatSeconds(r.seconds / r.num_points)
                        : "-"});
    }
  }
  std::printf("%s\n", table.Render().c_str());

  // Second scenario: full-space outliers (the real-dataset regime), where
  // outlyingness IS axis-separable and predictive signatures have a
  // fighting chance.
  FullSpaceGeneratorConfig fs_config;
  fs_config.num_points = profile.name == "quick" ? 150 : 400;
  fs_config.num_features = 10;
  fs_config.num_outliers = fs_config.num_points / 10;
  fs_config.seed = profile.seed;
  const SyntheticDataset fs = GenerateFullSpaceDataset(fs_config);
  GroundTruthBuilderOptions gt_options;
  gt_options.min_dim = 2;
  gt_options.max_dim = 2;
  ScoringService fs_service(lof, fs.dataset,
                            {.enable_cache = false, .cache = {}});
  const GroundTruth fs_gt =
      BuildGroundTruthByExhaustiveSearch(fs_service, gt_options);
  std::printf("full-space dataset: %zu pts, %zu feats; surrogate R^2: %.2f\n",
              fs.dataset.num_points(), fs.dataset.num_features(),
              surrogate.Fidelity(fs.dataset, lof));
  TextTable fs_table;
  fs_table.SetHeader({"explainer", "MAP@2d", "recall@2d", "time/point"});
  for (const PointExplainer* explainer :
       {static_cast<const PointExplainer*>(&beam),
        static_cast<const PointExplainer*>(&surrogate)}) {
    const PipelineResult r = RunPointExplanationPipeline(
        fs_service, fs_gt, *explainer, 2, pipeline_options);
    fs_table.AddRow({explainer->name(), FormatDouble(r.map),
                     FormatDouble(r.mean_recall),
                     r.num_points > 0 ? FormatSeconds(r.seconds / r.num_points)
                                      : "-"});
  }
  std::printf("%s\n", fs_table.Render().c_str());

  std::printf(
      "expectation: the surrogate is orders of magnitude faster per point\n"
      "(one detector call amortized over the batch). On subspace outliers\n"
      "its MAP collapses -- axis-aligned splits cannot isolate points that\n"
      "are masked in every marginal, a concrete caveat for the paper's\n"
      "future-work direction. On full-space outliers (deviation in every\n"
      "feature) the signature features are genuinely relevant, but the\n"
      "exhaustive-search ground truth picks one of many near-equivalent\n"
      "subspaces, so exact-match MAP stays far below Beam's -- predictive\n"
      "explanations trade exactness for a ~100x per-point speedup.\n");
  return 0;
}
