// Regenerates Figure 8: dimensionality histogram of the subspaces relevant
// to outliers, and the contamination ratio, per HiCS synthetic split.
//
// Paper reference (full profile): the five splits contain relevant
// subspaces of dimensionality 2-5 partitioning the feature space --
//   14d: one subspace of each dim 2,3,4,5 (20 outliers, 2.0%)
//   23d: 7 subspaces                      (34 outliers, 3.4%)
//   39d: 12 subspaces                     (59 outliers, 5.9%)
//   70d: 22 subspaces                     (100 outliers, 10.0%)
//  100d: 31 subspaces                     (143 outliers, 14.3%)
//
// Usage: bench_fig8_groundtruth [--full] [--seed N]

#include <map>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace subex;
  const TestbedProfile profile = bench::ParseProfile(
      argc, argv, "Figure 8: relevant-subspace dimensionality & contamination");
  const std::vector<TestbedDataset> suite =
      bench::BuildFullTestbed(profile, /*synthetic=*/true, /*real=*/false);

  TextTable table;
  table.SetHeader({"dataset", "#2d", "#3d", "#4d", "#5d", "total",
                   "outliers", "contamination%", "shared outliers"});
  for (const TestbedDataset& entry : suite) {
    std::map<int, int> histogram;
    for (const Subspace& s : entry.data.relevant_subspaces) {
      ++histogram[static_cast<int>(s.size())];
    }
    int shared = 0;
    for (int p : entry.data.dataset.outlier_indices()) {
      if (entry.data.ground_truth.RelevantFor(p).size() >= 2) ++shared;
    }
    table.AddRow({
        entry.data.name,
        std::to_string(histogram[2]),
        std::to_string(histogram[3]),
        std::to_string(histogram[4]),
        std::to_string(histogram[5]),
        std::to_string(entry.data.relevant_subspaces.size()),
        std::to_string(entry.data.dataset.outlier_indices().size()),
        FormatDouble(100.0 * entry.data.dataset.ContaminationRatio(), 1),
        std::to_string(shared),
    });
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "paper expectation: subspace counts 4/7/12/22/31 across the splits,\n"
      "dimensionalities 2-5 partitioning the feature space exactly, ~9%% of\n"
      "outliers explained by two subspaces, contamination 2-14.3%%.\n");
  return 0;
}
