// Regenerates Table 1: "Characteristics of real and synthetic datasets".
//
// For the synthetic (HiCS-style) suite the characteristics come from the
// planted ground truth; for the real-dataset stand-ins they come from the
// exhaustive-LOF ground truth built with the paper's §3.2 procedure.
//
// Paper reference values (full profile):
//   Real: full-space outliers, 10% contamination, 60/151/249 relevant
//         subspaces, 3 relevant subspaces per outlier (one per dim 2-4),
//         1 / 1.13 / 1.45 outliers per relevant subspace, 100% feature ratio.
//   Synthetic: subspace outliers, 2/3.4/5.9/10/14.3% contamination,
//         4/7/12/22/31 relevant subspaces, ~91% of outliers with one
//         relevant subspace, 5 outliers per relevant subspace, relevant
//         feature ratio 35/21/12/7/5%.
//
// Usage: bench_table1_datasets [--full] [--seed N]

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace subex;
  const TestbedProfile profile =
      bench::ParseProfile(argc, argv, "Table 1: dataset characteristics");
  const std::vector<TestbedDataset> suite =
      bench::BuildFullTestbed(profile, /*synthetic=*/true, /*real=*/true);

  TextTable table;
  table.SetHeader({"dataset", "outlier type", "points", "features",
                   "outliers", "contam%", "#rel subspaces", "rel/outlier",
                   "outliers/rel", "rel feat ratio%", "expl dims"});
  for (const TestbedDataset& entry : suite) {
    const Dataset& d = entry.data.dataset;
    const GroundTruth& gt = entry.data.ground_truth;
    std::string dims;
    for (int dim : entry.explanation_dims) {
      if (!dims.empty()) dims += ",";
      dims += std::to_string(dim);
    }
    table.AddRow({
        entry.data.name,
        entry.subspace_outliers ? "subspace" : "full space",
        std::to_string(d.num_points()),
        std::to_string(d.num_features()),
        std::to_string(d.outlier_indices().size()),
        FormatDouble(100.0 * d.ContaminationRatio(), 1),
        std::to_string(gt.AllRelevantSubspaces().size()),
        FormatDouble(gt.MeanSubspacesPerPoint(), 2),
        FormatDouble(gt.MeanOutliersPerSubspace(), 2),
        FormatDouble(100.0 * entry.relevant_feature_ratio, 0),
        dims,
    });
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf(
      "paper expectation: synthetic splits carry 4/7/12/22/31 relevant\n"
      "subspaces with exactly 5 outliers each and contamination rising from\n"
      "2%% to 14.3%%; real(-like) datasets carry 10%% full-space outliers\n"
      "with one relevant subspace per outlier per dimensionality 2-4.\n");
  if (profile.name == "quick") {
    std::printf(
        "note: quick profile scales point counts by %.2f and skips splits\n"
        "wider than %dd; run with --full for the published sizes.\n",
        profile.dataset_scale, profile.max_dataset_dim);
  }
  return 0;
}
