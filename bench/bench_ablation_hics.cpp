// Ablation: HiCS design choices (DESIGN.md "Correlation heuristic").
//
//  (1) Monte-Carlo iterations: how many iterations does the contrast
//      estimate need before planted (correlated) subspaces separate
//      reliably from random feature pairs?
//  (2) Statistical test: Welch's t-test (the paper's default) vs. the
//      two-sample Kolmogorov-Smirnov test.
//  (3) Candidate cutoff: the paper uses 400; how small can it get before
//      the stage-wise search loses the planted subspaces?
//
// Usage: bench_ablation_hics [--full] [--seed N]

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace subex;
  const TestbedProfile profile =
      bench::ParseProfile(argc, argv, "Ablation: HiCS design choices");

  HicsGeneratorConfig config;
  config.num_points = profile.name == "quick" ? 400 : 1000;
  config.subspace_dims = {2, 3, 2, 3, 4};  // 14 features.
  config.seed = profile.seed;
  const SyntheticDataset d = GenerateHicsDataset(config);
  const Lof lof(15);
  ScoringService service(lof, d.dataset, {.enable_cache = false, .cache = {}});
  std::printf("dataset: %zu pts, %zu feats, planted subspaces:",
              d.dataset.num_points(), d.dataset.num_features());
  for (const Subspace& s : d.relevant_subspaces) {
    std::printf(" %s", s.ToString().c_str());
  }
  std::printf("\n\n");

  // (1) + (2): contrast separation as a function of MC iterations & test.
  std::printf("contrast gap: mean(planted 2d) - mean(random off pairs)\n");
  TextTable gap_table;
  gap_table.SetHeader({"mc iterations", "welch gap", "ks gap", "time(welch)"});
  for (int iters : {5, 10, 25, 50, 100}) {
    double gaps[2];
    double seconds = 0.0;
    for (TwoSampleTestKind test : {TwoSampleTestKind::kWelch,
                                   TwoSampleTestKind::kKolmogorovSmirnov}) {
      Hics::Options options;
      options.mc_iterations = iters;
      options.test = test;
      options.seed = profile.seed;
      const Hics hics(options);
      const auto start = std::chrono::steady_clock::now();
      double planted_sum = 0.0;
      int planted_count = 0;
      for (const Subspace& s : d.relevant_subspaces) {
        if (s.size() != 2) continue;
        planted_sum += hics.Contrast(d.dataset, s);
        ++planted_count;
      }
      // Off pairs: features drawn from two different planted subspaces.
      double off_sum = 0.0;
      int off_count = 0;
      for (std::size_t i = 0; i + 1 < d.relevant_subspaces.size(); ++i) {
        const Subspace cross({d.relevant_subspaces[i].features().front(),
                              d.relevant_subspaces[i + 1].features().front()});
        off_sum += hics.Contrast(d.dataset, cross);
        ++off_count;
      }
      gaps[test == TwoSampleTestKind::kWelch ? 0 : 1] =
          planted_sum / planted_count - off_sum / off_count;
      if (test == TwoSampleTestKind::kWelch) {
        seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      }
    }
    gap_table.AddRow({std::to_string(iters), FormatDouble(gaps[0], 3),
                      FormatDouble(gaps[1], 3), FormatSeconds(seconds)});
  }
  std::printf("%s\n", gap_table.Render().c_str());

  // (3): candidate cutoff vs. summary quality at 3d.
  std::printf("candidate cutoff vs. 3d summarization MAP (Welch, mc=%d)\n",
              profile.hics_mc_iterations);
  TextTable cutoff_table;
  cutoff_table.SetHeader({"cutoff", "MAP@3d", "recall@3d", "time"});
  for (int cutoff : {5, 10, 25, 50, 100, 400}) {
    Hics::Options options;
    options.candidate_cutoff = cutoff;
    options.mc_iterations = profile.hics_mc_iterations;
    options.seed = profile.seed;
    const Hics hics(options);
    const PipelineResult r =
        RunSummarizationPipeline(service, d.ground_truth, hics, 3);
    cutoff_table.AddRow({std::to_string(cutoff), FormatDouble(r.map),
                         FormatDouble(r.mean_recall),
                         FormatSeconds(r.seconds)});
  }
  std::printf("%s\n", cutoff_table.Render().c_str());

  // Final-ranking ablation: the paper's detector ranking vs pure contrast
  // ranking. On this testbed's parity-atom data both rank comparably:
  // augmentations of lower-dimensional relevant subspaces tie with exact
  // subspaces under *either* criterion — evidence that the ambiguity the
  // paper reports ("detectors assign higher scores to outliers in their
  // augmented subspaces", §4.2) is intrinsic to the data, not an artifact
  // of the ranking choice.
  std::printf("final ranking: detector (paper) vs contrast\n");
  TextTable ranking_table;
  ranking_table.SetHeader({"ranking", "MAP@2d", "MAP@3d", "recall@3d"});
  for (Hics::Ranking ranking :
       {Hics::Ranking::kDetector, Hics::Ranking::kContrast}) {
    Hics::Options options;
    options.candidate_cutoff = profile.hics_candidate_cutoff;
    options.mc_iterations = profile.hics_mc_iterations;
    options.ranking = ranking;
    options.seed = profile.seed;
    const Hics hics(options);
    const PipelineResult r2 =
        RunSummarizationPipeline(service, d.ground_truth, hics, 2);
    const PipelineResult r3 =
        RunSummarizationPipeline(service, d.ground_truth, hics, 3);
    ranking_table.AddRow(
        {ranking == Hics::Ranking::kDetector ? "detector" : "contrast",
         FormatDouble(r2.map), FormatDouble(r3.map),
         FormatDouble(r3.mean_recall)});
  }
  std::printf("%s\n", ranking_table.Render().c_str());

  std::printf(
      "expectation: the contrast gap widens and stabilizes with more MC\n"
      "iterations (both tests separate planted from random pairs); tiny\n"
      "cutoffs prune the planted subspaces' parents and lose MAP, large\n"
      "cutoffs only cost time -- supporting the paper's 400; detector and\n"
      "contrast ranking perform comparably (the exact-vs-augmentation\n"
      "ambiguity is intrinsic to the data, cf. the paper's section 4.2).\n");
  return 0;
}
