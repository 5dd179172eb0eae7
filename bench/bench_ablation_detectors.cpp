// Ablation: detector choice (§3.1's selection rationale).
//
// The paper restricts the testbed to LOF / Fast ABOD / iForest, citing
// studies where these "frequently outperform distance or cluster-based
// algorithms". This bench puts that to the test on this testbed's own
// data, adding the classic kNN-distance detector, LODA (the §6
// stream-ready candidate) and exact ABOD (to quantify the Fast ABOD
// approximation):
//
//  (1) detection quality (ROC-AUC) on a subspace-outlier dataset, scored
//      inside the relevant subspaces vs the full space;
//  (2) explanation quality: MAP of Beam paired with each detector;
//  (3) Fast vs exact ABOD ranking agreement.
//
// Usage: bench_ablation_detectors [--full] [--seed N]

#include <memory>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace subex;
  const TestbedProfile profile =
      bench::ParseProfile(argc, argv, "Ablation: detector choice");

  HicsGeneratorConfig config;
  config.num_points = profile.name == "quick" ? 300 : 1000;
  config.subspace_dims = {2, 3, 2, 3};
  config.seed = profile.seed;
  const SyntheticDataset d = GenerateHicsDataset(config);
  std::vector<bool> labels(d.dataset.num_points(), false);
  for (int p : d.dataset.outlier_indices()) labels[p] = true;

  std::vector<std::pair<std::string, std::unique_ptr<Detector>>> detectors;
  detectors.emplace_back("LOF", std::make_unique<Lof>(15));
  detectors.emplace_back("FastABOD", std::make_unique<FastAbod>(10));
  detectors.emplace_back(
      "iForest", MakeTestbedDetector(DetectorKind::kIsolationForest, profile));
  detectors.emplace_back("kNNDist", std::make_unique<KnnDistance>(10));
  Loda::Options loda_options;
  loda_options.seed = profile.seed;
  detectors.emplace_back("LODA", std::make_unique<Loda>(loda_options));
  detectors.emplace_back("ExactABOD", std::make_unique<ExactAbod>());

  std::printf("(1) detection quality + (2) Beam explanation quality\n");
  TextTable table;
  table.SetHeader({"detector", "AUC full space", "AUC in rel subspaces",
                   "Beam MAP@2d", "Beam time@2d"});
  PipelineOptions pipeline_options;
  pipeline_options.max_points = profile.name == "quick" ? 5 : 0;
  Beam::Options beam_options;
  beam_options.beam_width = profile.beam_width;
  const Beam beam(beam_options);
  for (const auto& [name, detector] : detectors) {
    const double auc_full = RocAuc(detector->Score(d.dataset, Subspace()),
                                   labels);
    // Within each relevant subspace, only that subspace's own outliers are
    // positives (the other planted outliers are inliers there); report the
    // mean across subspaces.
    double auc_sub = 0.0;
    for (const Subspace& s : d.relevant_subspaces) {
      std::vector<bool> own(d.dataset.num_points(), false);
      for (int p : d.dataset.outlier_indices()) {
        const auto& rel = d.ground_truth.RelevantFor(p);
        if (std::find(rel.begin(), rel.end(), s) != rel.end()) own[p] = true;
      }
      auc_sub += RocAuc(detector->Score(d.dataset, s), own);
    }
    auc_sub /= static_cast<double>(d.relevant_subspaces.size());
    ScoringService service(*detector, d.dataset,
                           {.enable_cache = false, .cache = {}});
    const PipelineResult r = RunPointExplanationPipeline(
        service, d.ground_truth, beam, 2, pipeline_options);
    table.AddRow({name, FormatDouble(auc_full, 3), FormatDouble(auc_sub, 3),
                  FormatDouble(r.map), FormatSeconds(r.seconds)});
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf("(3) Fast ABOD vs exact ABOD rank agreement\n");
  const std::vector<double> fast =
      FastAbod(10).Score(d.dataset, d.relevant_subspaces.front());
  const std::vector<double> exact =
      ExactAbod().Score(d.dataset, d.relevant_subspaces.front());
  const std::vector<int> fast_top = TopKIndices(fast, 20);
  const std::vector<int> exact_top = TopKIndices(exact, 20);
  int overlap = 0;
  for (int p : fast_top) {
    if (std::find(exact_top.begin(), exact_top.end(), p) != exact_top.end()) {
      ++overlap;
    }
  }
  std::printf("top-20 overlap in %s: %d/20\n\n",
              d.relevant_subspaces.front().ToString().c_str(), overlap);

  std::printf(
      "expectation: the paper's trio separates subspace outliers inside\n"
      "their relevant subspaces (AUC ~1 there, lower in the full space);\n"
      "kNN-distance trails LOF on locally-varying density; the O(k n^2)\n"
      "Fast ABOD approximates the O(n^3) exact ranking closely.\n");
  return 0;
}
