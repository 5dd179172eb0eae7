// Regenerates Figure 10: MAP of the explanation summarization pipelines
// (LookOut / HiCS x LOF / Fast ABOD / iForest) for explanations of
// increasing dimensionality, on the synthetic splits (panels a-e) and the
// real-dataset stand-ins (panels f-h).
//
// Paper expectations (shape):
//  * synthetic: HiCS+LOF / HiCS+FastABOD dominate as the dataset dim grows
//    (correlated relevant subspaces); LookOut matches HiCS at 14d but its
//    MAP drops with the explanation dimensionality on wide datasets.
//  * real (full-space outliers): HiCS ~ 0 regardless of detector (no
//    correlation signal); LookOut+LOF is the most effective.
//
// Usage: bench_fig10_summarizers [--full] [--seed N] [--threads N]
//        [--no-cache]

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace subex;
  const TestbedProfile profile = bench::ParseProfile(
      argc, argv, "Figure 10: MAP of explanation summarization pipelines");
  ThreadPool pool(static_cast<std::size_t>(profile.num_threads));
  const std::vector<TestbedDataset> suite =
      bench::BuildFullTestbed(profile, /*synthetic=*/true, /*real=*/true,
                              &pool);

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

    for (SummarizerKind summarizer_kind :
         {SummarizerKind::kLookOut, SummarizerKind::kHics}) {
      const auto summarizer =
          MakeTestbedSummarizer(summarizer_kind, profile);
      for (DetectorKind detector_kind : AllDetectorKinds()) {
        std::vector<std::string> row = {
            std::string(SummarizerKindName(summarizer_kind)) + "+" +
            DetectorKindName(detector_kind)};
        for (int dim : entry.explanation_dims) {
          const std::uint64_t cost = bench::EstimateSummaryCellScores(
              profile, summarizer_kind, data.num_features(), dim);
          if (gt.PointsExplainedAtDimension(dim).empty() ||
              cost > bench::ScoreBudget(profile, detector_kind)) {
            row.push_back("-");
            row.push_back("-");
            continue;
          }
          const PipelineResult r = RunSummarizationPipeline(
              services.For(detector_kind), gt, *summarizer, dim);
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
      "paper expectation: HiCS (with LOF/FastABOD) dominates on the\n"
      "correlated synthetic subspaces while LookOut degrades with dataset\n"
      "and explanation dimensionality; on full-space outliers HiCS ~ 0 and\n"
      "LookOut+LOF leads. cells marked '-' exceeded the cost budget.\n");
  return 0;
}
