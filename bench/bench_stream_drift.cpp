// Extension bench: explanation under concept drift (the paper's §6
// stream-processing outlook).
//
// A drifting subspace-outlier stream is summarized chunk by chunk; the
// bench contrasts per-chunk recomputation against a frozen summary and
// reports the MAP trajectory across drifts, plus the per-chunk recompute
// cost — the quantity that motivates the paper's interest in cheaper
// predictive explanations.
//
// Usage: bench_stream_drift [--full] [--seed N] [--json PATH]

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace subex;
  std::string json_path;
  const TestbedProfile profile = bench::ParseProfile(
      argc, argv, "Extension: summarization under concept drift",
      [&](bench::FlagParser& flags) {
        flags.String("--json PATH", &json_path, "write the MAPs as JSON");
      });

  DriftingStreamConfig config;
  config.chunk_size = profile.name == "quick" ? 250 : 1000;
  config.outliers_per_chunk = 6;
  config.drift_every_chunks = 3;
  config.subspace_dims = {2, 3, 2};
  config.seed = profile.seed;
  DriftingStreamGenerator stream(config);
  const Lof lof(15);
  LookOut::Options lookout_options;
  lookout_options.budget = 6;
  const LookOut lookout(lookout_options);

  const int chunks = profile.name == "quick" ? 9 : 15;
  const std::vector<StreamingChunkResult> results =
      RunStreamingSummarization(stream, lof, lookout, chunks, 2);

  TextTable table;
  table.SetHeader({"chunk", "concept", "points@2d", "MAP recomputed",
                   "MAP frozen", "recompute time"});
  double fresh_sum = 0.0;
  double stale_sum = 0.0;
  int post_drift = 0;
  for (const StreamingChunkResult& r : results) {
    table.AddRow({std::to_string(r.chunk_index),
                  std::to_string(r.concept_epoch),
                  std::to_string(r.num_points),
                  FormatDouble(r.map_recomputed), FormatDouble(r.map_stale),
                  FormatSeconds(r.seconds_recompute)});
    if (r.concept_epoch > 0 && r.num_points > 0) {
      fresh_sum += r.map_recomputed;
      stale_sum += r.map_stale;
      ++post_drift;
    }
  }
  std::printf("%s\n", table.Render().c_str());
  if (post_drift > 0) {
    std::printf("post-drift mean MAP: recomputed %.2f vs frozen %.2f\n\n",
                fresh_sum / post_drift, stale_sum / post_drift);
  }
  std::printf(
      "expectation: the frozen summary explains concept-0 chunks and\n"
      "collapses after the first drift while per-chunk recomputation\n"
      "recovers -- subspace explanations are descriptive and must be\n"
      "re-executed for every new batch (paper, section 6).\n");

  if (!json_path.empty()) {
    bench::JsonTimingReport report;
    report.SetMeta(
        JsonObject()
            .Add("bench", "stream_drift")
            .Add("profile", profile.name)
            .Add("seed", static_cast<std::uint64_t>(config.seed))
            .Add("chunks", chunks)
            .Add("post_drift_chunks", post_drift)
            .Add("post_drift_map_recomputed",
                 post_drift > 0 ? fresh_sum / post_drift : 0.0)
            .Add("post_drift_map_frozen",
                 post_drift > 0 ? stale_sum / post_drift : 0.0));
    for (const StreamingChunkResult& r : results) {
      report.AddRow(JsonObject()
                        .Add("chunk", r.chunk_index)
                        .Add("concept_epoch", r.concept_epoch)
                        .Add("num_points", r.num_points)
                        .Add("map_recomputed", r.map_recomputed)
                        .Add("map_frozen", r.map_stale)
                        .Add("seconds_recompute", r.seconds_recompute));
    }
    report.WriteTo(json_path);
  }
  return 0;
}
