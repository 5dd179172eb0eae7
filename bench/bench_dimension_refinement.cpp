// Extension bench: dimension-based explanation quality (the paper's §6
// pointer to Trittenbach & Böhm 2019), applied as a re-ranking of the
// point explainers' output.
//
// Motivation measured in Figures 9/10: on subspace-outlier data, a
// relevant subspace's augmentations tie with it in detector score, so
// score-ranked MAP collapses at 3d+ even when recall is 1. The
// incremental-gain quality (z(S) - best projection z) separates exact
// subspaces from padded ones. This bench quantifies the MAP improvement
// and the extra cost (|S|+1 detector calls per refined candidate).
//
// Usage: bench_dimension_refinement [--full] [--seed N]

#include <memory>

#include "bench_util.h"

namespace {

// A point explainer decorated with the dimensional-gain re-ranking.
class RefinedExplainer final : public subex::PointExplainer {
 public:
  explicit RefinedExplainer(const subex::PointExplainer& base)
      : base_(base) {}
  std::string name() const override { return base_.name() + "+DimGain"; }
  subex::RankedSubspaces Explain(const subex::Dataset& data,
                                 const subex::Detector& detector, int point,
                                 int target_dim) const override {
    return subex::RefineByDimensionalGain(
        data, detector, point, base_.Explain(data, detector, point,
                                             target_dim));
  }

 private:
  const subex::PointExplainer& base_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace subex;
  const TestbedProfile profile = bench::ParseProfile(
      argc, argv, "Extension: dimension-based explanation quality");

  HicsGeneratorConfig config;
  config.num_points = profile.name == "quick" ? 300 : 1000;
  config.subspace_dims = {2, 3, 4, 5};  // The 14d split.
  config.seed = profile.seed;
  const SyntheticDataset d = GenerateHicsDataset(config);
  const Lof lof(15);
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  std::printf("dataset: %zu pts, %zu feats (subspace outliers)\n\n",
              d.dataset.num_points(), d.dataset.num_features());

  Beam::Options beam_options;
  beam_options.beam_width = profile.beam_width;
  const Beam beam(beam_options);
  const RefinedExplainer refined_beam(beam);
  RefOut::Options refout_options;
  refout_options.pool_size = profile.refout_pool_size;
  refout_options.beam_width = profile.beam_width;
  refout_options.seed = profile.seed;
  const RefOut refout(refout_options);
  const RefinedExplainer refined_refout(refout);

  PipelineOptions pipeline_options;
  pipeline_options.max_points = profile.name == "quick" ? 5 : 0;

  TextTable table;
  table.SetHeader({"pipeline", "MAP@3d", "rec@3d", "MAP@4d", "rec@4d",
                   "time@3d"});
  for (const PointExplainer* explainer :
       {static_cast<const PointExplainer*>(&beam),
        static_cast<const PointExplainer*>(&refined_beam),
        static_cast<const PointExplainer*>(&refout),
        static_cast<const PointExplainer*>(&refined_refout)}) {
    const PipelineResult r3 = RunPointExplanationPipeline(
        service, d.ground_truth, *explainer, 3, pipeline_options);
    const PipelineResult r4 = RunPointExplanationPipeline(
        service, d.ground_truth, *explainer, 4, pipeline_options);
    table.AddRow({explainer->name() + "+LOF", FormatDouble(r3.map),
                  FormatDouble(r3.mean_recall), FormatDouble(r4.map),
                  FormatDouble(r4.mean_recall), FormatSeconds(r3.seconds)});
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf(
      "expectation: re-ranking by incremental dimensional gain lifts MAP\n"
      "substantially wherever recall shows the search already found the\n"
      "relevant subspace (the exact-vs-augmentation ties of Figures 9/10),\n"
      "at ~(dim+1) extra detector calls per refined candidate.\n");
  return 0;
}
