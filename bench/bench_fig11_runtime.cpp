// Regenerates Figure 11: runtime of the detection & explanation pipelines
// as a function of the explanation dimensionality, on the 14d/23d/39d
// synthetic splits plus the Electricity-like real dataset (the paper's
// panels a-d for Beam/RefOut, e-h for LookOut/HiCS).
//
// Paper expectations (orderings; absolute numbers depend on hardware):
//  * LOF is the fastest detector, then iForest, then Fast ABOD.
//  * Beam's runtime grows steeply with the explanation dimensionality;
//    RefOut's stays roughly flat (its cost is the fixed random pool).
//  * LookOut+LOF beats every HiCS pipeline up to ~4d explanations; HiCS
//    catches up at 5d on wide datasets because its search is
//    detector-free while LookOut's exhaustive enumeration explodes.
//  * HiCS' runtime is nearly detector-independent.
//
// All scoring routes through a per-(dataset, detector) ScoringService shared
// across explainers and explanation dims, so overlapping subspace requests
// (Beam's repeated 2d sweeps, LookOut/HiCS candidate overlap) are served
// from cache; each dataset section ends with the services' hit-rate stats.
// Compare against `--no-cache` to measure the cached speedup, and use
// `--threads N` to size the worker pool.
//
// Usage: bench_fig11_runtime [--full] [--seed N] [--threads N] [--no-cache]
//                            [--stats] [--json PATH] [--trace-out PATH]
//                            [--metrics-port N] [--profile-out PATH]
//                            [--profile-hz N]
//
// --trace-out enables the process SpanCollector and writes every span the
// run produced (detect.score, explain.refine, gt.search, ... as orphan
// spans — there is no request trace in a batch bench) as Chrome
// trace-event JSON for Perfetto / chrome://tracing.
//
// --profile-out arms the SIGPROF sampling profiler across the whole run
// and writes collapsed flamegraph stacks; --metrics-port serves
// GET /metrics so the subex_prof_* counter series (per-detector cycles,
// IPC, LLC misses) can be scraped mid-run.
//
// --stats prints, per dataset, the per-detector cache counters plus the
// metrics-registry snapshot (the same JSON the ExplainServer kStats
// endpoint returns): detect.score.<detector> and explain.search.<explainer>
// latency histograms give the figure's runtime a per-stage breakdown —
// detector scoring vs explainer search — beyond the per-cell wall clock.
// The eviction-manager snapshot rides along, showing how much of the
// process-wide budget the service score caches held per dataset.
// --json writes a machine-readable timing report with one row per measured
// pipeline cell plus one registry-snapshot row per dataset. The registry is
// reset between datasets so each snapshot covers exactly one section.

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace subex;
  bool print_stats_json = false;
  std::string json_path;
  std::string trace_out;
  std::string profile_out;
  int profile_hz = 0;
  int metrics_port = -1;
  TestbedProfile profile = bench::ParseServingProfile(
      argc, argv, "Figure 11: runtime of detection & explanation pipelines",
      [&](bench::FlagParser& flags) {
        flags.Switch("--stats", &print_stats_json, "print per-dataset stats")
            .String("--json PATH", &json_path, "write the timings as JSON")
            .String("--trace-out PATH", &trace_out, "write Chrome trace JSON")
            .Number("--metrics-port", &metrics_port, 0, 65535,
                    "serve GET /metrics; 0 = any free port");
        bench::DeclareProfilerFlags(flags, &profile_out, &profile_hz);
      });
  // Runtime trends need fewer evaluation points than MAP does.
  if (profile.name == "quick") profile.max_points_per_cell = 3;
  if (!trace_out.empty()) {
    SpanCollector::Global().Enable(/*ring_capacity_per_thread=*/1 << 16);
  }
  RegisterProfProcessMetrics();
  bench::StartProfilerIfRequested(profile_out, profile_hz);
  MetricsHttpServer metrics_server;
  bench::StartMetricsEndpointIfRequested(metrics_server, metrics_port);
  bench::JsonTimingReport report;
  report.SetMeta(JsonObject()
                     .Add("bench", "fig11_runtime")
                     .Add("profile", profile.name)
                     .Add("seed", static_cast<std::uint64_t>(profile.seed))
                     .Add("cache", profile.cache_scores));

  ThreadPool pool(static_cast<std::size_t>(profile.num_threads));
  std::vector<TestbedDataset> suite =
      bench::BuildFullTestbed(profile, /*synthetic=*/true, /*real=*/true,
                              &pool);
  // Figure 11 uses the synthetic splits up to 39d plus Electricity only.
  std::erase_if(suite, [](const TestbedDataset& entry) {
    return entry.data.dataset.num_features() > 39 ||
           (!entry.subspace_outliers &&
            entry.data.name != "electricity_like");
  });

  PipelineOptions pipeline_options;
  pipeline_options.max_points = profile.max_points_per_cell;

  for (const TestbedDataset& entry : suite) {
    const Dataset& data = entry.data.dataset;
    const GroundTruth& gt = entry.data.ground_truth;
    std::printf("--- %s (%zu pts, %zu feats) ---\n", entry.data.name.c_str(),
                data.num_points(), data.num_features());
    // Scope the registry's histograms to this dataset section (testbed
    // construction above also fed detect.score/gt.search). The prof
    // availability gauges survive the reset for mid-run scrapes.
    MetricsRegistry::Global().Reset();
    RegisterProfProcessMetrics();

    TextTable table;
    std::vector<std::string> header = {"pipeline"};
    for (int dim : entry.explanation_dims) {
      header.push_back("t@" + std::to_string(dim) + "d");
    }
    table.SetHeader(header);

    // One scoring service per detector, shared across every pipeline row of
    // this dataset: Beam re-visits its exhaustive 2d stage for every point
    // and dimensionality, and LookOut/HiCS overlap on low-dim candidates,
    // so later rows are served largely from cache.
    bench::DetectorServices services =
        bench::MakeDetectorServices(profile, data, &pool);

    // Point explanation pipelines (panels a-d). Runtime is normalized per
    // explained point, matching the per-outlier repetition the paper
    // describes.
    for (PointExplainerKind explainer_kind :
         {PointExplainerKind::kBeam, PointExplainerKind::kRefOut}) {
      const auto explainer =
          MakeTestbedPointExplainer(explainer_kind, profile);
      for (DetectorKind detector_kind : AllDetectorKinds()) {
        std::vector<std::string> row = {
            std::string(PointExplainerKindName(explainer_kind)) + "+" +
            DetectorKindName(detector_kind)};
        for (int dim : entry.explanation_dims) {
          const int points = bench::CellPoints(profile, gt, dim);
          const std::uint64_t cost = bench::EstimatePointCellScores(
              profile, explainer_kind, data.num_features(), dim, points);
          if (points == 0 ||
              cost > bench::ScoreBudget(profile, detector_kind)) {
            row.push_back("-");
            continue;
          }
          const PipelineResult r = RunPointExplanationPipeline(
              services.For(detector_kind), gt, *explainer, dim,
              pipeline_options);
          row.push_back(FormatSeconds(r.seconds / r.num_points) + "/pt");
          report.AddRow(
              JsonObject()
                  .Add("dataset", entry.data.name)
                  .Add("explainer", PointExplainerKindName(explainer_kind))
                  .Add("detector", DetectorKindName(detector_kind))
                  .Add("dim", dim)
                  .Add("points", r.num_points)
                  .Add("seconds", r.seconds)
                  .Add("seconds_per_point", r.seconds / r.num_points));
        }
        table.AddRow(std::move(row));
      }
    }

    // Summarization pipelines (panels e-h): one run explains all points.
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
            continue;
          }
          const PipelineResult r = RunSummarizationPipeline(
              services.For(detector_kind), gt, *summarizer, dim);
          row.push_back(FormatSeconds(r.seconds));
          report.AddRow(
              JsonObject()
                  .Add("dataset", entry.data.name)
                  .Add("explainer", SummarizerKindName(summarizer_kind))
                  .Add("detector", DetectorKindName(detector_kind))
                  .Add("dim", dim)
                  .Add("seconds", r.seconds));
        }
        table.AddRow(std::move(row));
      }
    }
    std::printf("%s\n", table.Render().c_str());
    bench::PrintServiceStats(services);
    const std::string metrics_json = MetricsRegistry::Global().ToJson();
    const std::string mem_json = EvictionManager::Global().snapshot().ToJson();
    if (print_stats_json) {
      std::printf("stats json: %s\n",
                  bench::ServiceStatsJson(services).c_str());
      std::printf("metrics json: %s\n", metrics_json.c_str());
      std::printf("mem json: %s\n", mem_json.c_str());
      // Headline latency shape of the section's detector scoring: the
      // count-weighted mean is robust to the bucket skew a plain mean
      // suffers when fast cache probes dominate.
      const HistogramSnapshot score_snap =
          MetricsRegistry::Global().GetHistogram("detect.score").snapshot();
      std::printf("detect.score wmean %.3f ms, p99.9 %.3f ms (%llu samples)\n",
                  score_snap.WeightedMeanNs() / 1e6,
                  score_snap.ValueAtQuantile(0.999) / 1e6,
                  static_cast<unsigned long long>(score_snap.count));
    }
    report.AddRow(JsonObject()
                      .Add("dataset", entry.data.name)
                      .Add("kind", "metrics")
                      .AddRaw("metrics", metrics_json)
                      .AddRaw("mem", mem_json));
    std::printf("\n");
  }

  if (!json_path.empty()) report.WriteTo(json_path);
  bench::WriteTraceIfRequested(trace_out);
  bench::WriteProfileIfRequested(profile_out);
  metrics_server.Stop();
  std::printf(
      "paper expectation: LOF fastest / FastABOD slowest per subspace;\n"
      "Beam grows steeply with explanation dim while RefOut stays flat;\n"
      "LookOut+LOF beats HiCS at low dims; HiCS' runtime is detector-\n"
      "independent. '-' = cell over the cost budget (not run).\n");
  return 0;
}
