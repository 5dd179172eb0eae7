// Explanation summarization workflow: LookOut vs HiCS (§4.2, miniature).
//
// Generates a subspace-outlier dataset, asks each summarizer for the top
// subspaces that collectively explain *all* outliers at once, and shows how
// the two search strategies differ: LookOut maximizes detector scores
// greedily (submodular coverage), HiCS searches for high-contrast feature
// combinations and only uses the detector to rank its findings.
//
// Run: ./summarize_outliers [seed]

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "subex/subex.h"

int main(int argc, char** argv) {
  using namespace subex;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                      : 11;

  HicsGeneratorConfig config;
  config.num_points = 400;
  config.subspace_dims = {2, 2, 3};
  config.seed = seed;
  const SyntheticDataset d = GenerateHicsDataset(config);
  const std::vector<int>& outliers = d.dataset.outlier_indices();
  std::printf("dataset: %zu points, %zu features, %zu outliers\n",
              d.dataset.num_points(), d.dataset.num_features(),
              outliers.size());
  std::printf("planted relevant subspaces:");
  for (const Subspace& s : d.relevant_subspaces) {
    std::printf(" %s", s.ToString().c_str());
  }
  std::printf("\n\n");

  const Lof lof(15);
  LookOut::Options lookout_options;
  lookout_options.budget = 5;
  const LookOut lookout(lookout_options);
  Hics::Options hics_options;
  hics_options.candidate_cutoff = 60;
  hics_options.mc_iterations = 50;
  hics_options.max_results = 5;
  hics_options.seed = seed;
  const Hics hics(hics_options);

  for (int dim : {2, 3}) {
    std::printf("=== %dd summaries (LOF as the ranking detector) ===\n", dim);
    for (const Summarizer* summarizer :
         {static_cast<const Summarizer*>(&lookout),
          static_cast<const Summarizer*>(&hics)}) {
      const RankedSubspaces summary =
          summarizer->Summarize(d.dataset, lof, outliers, dim);
      std::printf("%-8s:", summarizer->name().c_str());
      for (std::size_t i = 0; i < summary.size(); ++i) {
        const bool planted =
            std::find(d.relevant_subspaces.begin(),
                      d.relevant_subspaces.end(),
                      summary.subspaces[i]) != d.relevant_subspaces.end();
        std::printf(" %s%s", summary.subspaces[i].ToString().c_str(),
                    planted ? "*" : "");
      }
      std::printf("   (* = planted subspace)\n");
    }
  }

  // Quantify with the paper's metric.
  std::printf("\nMAP against planted ground truth:\n");
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  for (int dim : {2, 3}) {
    const PipelineResult lo =
        RunSummarizationPipeline(service, d.ground_truth, lookout, dim);
    const PipelineResult hi =
        RunSummarizationPipeline(service, d.ground_truth, hics, dim);
    std::printf("  %dd: LookOut %.2f   HiCS %.2f\n", dim, lo.map, hi.map);
  }
  return 0;
}
