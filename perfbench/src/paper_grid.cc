// paper_grid: the Fig. 11 runtime grid, offline and closed loop.
//
// {Beam, RefOut, LookOut, HiCS} x {LOF, FastABOD, iForest} x explanation
// dims on the synthetic HiCS splits, cells skipped by the figure bench's
// cost budget. Every pass builds fresh per-(dataset, detector) scoring
// services, so the cache hit rate depends only on how much the explainers
// overlap, never on an earlier pass.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench_util.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace subex;

/// One evaluated cell; the MAP and recall are the checked outputs.
struct Cell {
  std::string key;  // "hics_14d Beam LOF 2"
  double map = 0.0;
  double recall = 0.0;

  std::string Line() const {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer), " %.17g %.17g", map, recall);
    return key + buffer;
  }
};

struct PassResult {
  double seconds = 0.0;
  double cpu_s = 0.0;  // Process CPU time of the pass.
  std::vector<Cell> cells;
  ServiceStatsSnapshot service;
  std::vector<double> score_ms;    // Scoring calls that ran a detector.
  std::vector<double> explain_ms;  // Explain and Summarize calls.
};

/// Everything set-up builds: datasets, pool, timed detectors and explainers.
class Grid {
 public:
  Grid(Config& config, std::uint64_t seed, LatencySink* score_sink,
       LatencySink* explain_sink)
      : datasets_(config.StrList("datasets")) {
    profile_.seed = seed;
    profile_.dataset_scale = config.Double("dataset_scale");
    profile_.max_explanation_dim =
        static_cast<int>(config.Int("max_explanation_dim"));
    profile_.max_points_per_cell =
        static_cast<int>(config.Int("max_points_per_cell"));
    profile_.num_threads = static_cast<int>(config.Int("pool_threads"));
    pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(profile_.num_threads));
    for (TestbedDataset& entry : BuildSyntheticSuite(profile_)) {
      if (std::find(datasets_.begin(), datasets_.end(), entry.data.name) !=
          datasets_.end()) {
        suite_.push_back(std::move(entry));
      }
    }
    if (suite_.size() != datasets_.size()) {
      throw std::runtime_error("paper_grid: unknown dataset in 'datasets'");
    }
    Tracer& tracer = Tracer::Global();
    for (DetectorKind kind : AllDetectorKinds()) {
      detectors_.push_back(MakeTestbedDetector(kind, profile_));
      timed_detectors_.push_back(std::make_unique<TimedDetector>(
          *detectors_.back(),
          tracer.Slot("detect." + detectors_.back()->name()), score_sink));
    }
    LayerSlot* const scoring_slot = tracer.Slot("serve.call");
    for (PointExplainerKind kind :
         {PointExplainerKind::kBeam, PointExplainerKind::kRefOut}) {
      point_explainers_.push_back(MakeTestbedPointExplainer(kind, profile_));
      timed_point_explainers_.push_back(std::make_unique<TimedPointExplainer>(
          *point_explainers_.back(),
          tracer.Slot("explain." + point_explainers_.back()->name()),
          scoring_slot, explain_sink));
    }
    for (SummarizerKind kind : {SummarizerKind::kLookOut,
                                SummarizerKind::kHics}) {
      summarizers_.push_back(MakeTestbedSummarizer(kind, profile_));
      timed_summarizers_.push_back(std::make_unique<TimedSummarizer>(
          *summarizers_.back(),
          tracer.Slot("explain." + summarizers_.back()->name()),
          scoring_slot, explain_sink));
    }
    core_slot_ = tracer.Slot("core.pipeline");
    pipeline_options_.max_points = profile_.max_points_per_cell;
  }

  int pool_threads() const { return profile_.num_threads; }

  PassResult RunPass(MemPeak& mem) {
    PassResult pass;
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    for (const TestbedDataset& entry : suite_) {
      RunDataset(entry, mem, pass);
    }
    pass.seconds = SecondsBetween(start, Clock::now());
    pass.cpu_s = ProcessCpuSeconds() - cpu_start;
    return pass;
  }

 private:
  void RunDataset(const TestbedDataset& entry, MemPeak& mem,
                  PassResult& pass) {
    const Dataset& data = entry.data.dataset;
    const GroundTruth& gt = entry.data.ground_truth;
    const int features = static_cast<int>(data.num_features());
    const std::vector<DetectorKind> kinds = AllDetectorKinds();
    std::vector<std::unique_ptr<ScoringService>> services;
    for (const auto& detector : timed_detectors_) {
      services.push_back(std::make_unique<ScoringService>(
          *detector, data, MakeServiceOptions(profile_), pool_.get()));
    }
    auto record = [&](const PipelineResult& r, const std::string& explainer,
                      std::size_t k, int dim) {
      pass.cells.push_back(Cell{entry.data.name + " " + explainer + " " +
                                    DetectorKindName(kinds[k]) + " " +
                                    std::to_string(dim),
                                r.map, r.mean_recall});
      mem.Sample();
    };
    const PointExplainerKind point_kinds[] = {PointExplainerKind::kBeam,
                                              PointExplainerKind::kRefOut};
    for (std::size_t e = 0; e < timed_point_explainers_.size(); ++e) {
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        for (int dim : entry.explanation_dims) {
          const int points = bench::CellPoints(profile_, gt, dim);
          if (points == 0 ||
              bench::EstimatePointCellScores(profile_, point_kinds[e],
                                             features, dim, points) >
                  bench::ScoreBudget(profile_, kinds[k])) {
            continue;
          }
          PipelineResult r;
          {
            Span span(core_slot_);
            r = RunPointExplanationPipeline(*services[k], gt,
                                            *timed_point_explainers_[e], dim,
                                            pipeline_options_);
          }
          record(r, timed_point_explainers_[e]->name(), k, dim);
        }
      }
    }
    const SummarizerKind summary_kinds[] = {SummarizerKind::kLookOut,
                                            SummarizerKind::kHics};
    for (std::size_t e = 0; e < timed_summarizers_.size(); ++e) {
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        for (int dim : entry.explanation_dims) {
          if (gt.PointsExplainedAtDimension(dim).empty() ||
              bench::EstimateSummaryCellScores(profile_, summary_kinds[e],
                                               features, dim) >
                  bench::ScoreBudget(profile_, kinds[k])) {
            continue;
          }
          PipelineResult r;
          {
            Span span(core_slot_);
            r = RunSummarizationPipeline(*services[k], gt,
                                         *timed_summarizers_[e], dim,
                                         pipeline_options_);
          }
          record(r, timed_summarizers_[e]->name(), k, dim);
        }
      }
    }
    for (const auto& service : services) {
      pass.service = SumStats(pass.service, service->stats());
    }
  }

  TestbedProfile profile_ = TestbedProfile::Quick();
  std::vector<std::string> datasets_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<TestbedDataset> suite_;
  std::vector<std::unique_ptr<Detector>> detectors_;
  std::vector<std::unique_ptr<TimedDetector>> timed_detectors_;
  std::vector<std::unique_ptr<PointExplainer>> point_explainers_;
  std::vector<std::unique_ptr<TimedPointExplainer>> timed_point_explainers_;
  std::vector<std::unique_ptr<Summarizer>> summarizers_;
  std::vector<std::unique_ptr<TimedSummarizer>> timed_summarizers_;
  LayerSlot* core_slot_ = nullptr;
  PipelineOptions pipeline_options_;
};

std::vector<std::string> ReadGolden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

/// Compares a pass's cells line by line against `expected`; each cell is one
/// check, and a missing or extra cell is a mismatch.
void CheckCells(const std::vector<Cell>& cells,
                const std::vector<std::string>& expected, RunResult& result,
                const char* against) {
  const std::size_t n = std::max(cells.size(), expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string got = i < cells.size() ? cells[i].Line() : "<missing>";
    const std::string want = i < expected.size() ? expected[i] : "<missing>";
    const bool match = got == want;
    if (!match) {
      std::printf("MISMATCH vs %s: got '%s', want '%s'\n", against,
                  got.c_str(), want.c_str());
    }
    result.Check(match);
  }
}

std::vector<std::string> Lines(const std::vector<Cell>& cells) {
  std::vector<std::string> lines;
  for (const Cell& cell : cells) lines.push_back(cell.Line());
  return lines;
}

/// What one measured half of a run produced.
struct Half {
  RunResult e2e;
  std::vector<PassResult> passes;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Passes until `seconds` elapse (at least `min_passes`), each on a freshly
/// set-up grid; the set-up times go to `setup_s`, spread over the run like
/// the passes themselves.
Half MeasureHalf(const std::function<std::unique_ptr<Grid>()>& set_up,
                 double seconds, int min_passes, MemPeak& mem,
                 LatencySink& score_sink, LatencySink& explain_sink,
                 std::vector<double>& setup_s) {
  Half half;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(half.passes.size()) < min_passes ||
         SecondsBetween(start, Clock::now()) < seconds) {
    const Clock::time_point setup_start = Clock::now();
    const std::unique_ptr<Grid> grid = set_up();
    setup_s.push_back(SecondsBetween(setup_start, Clock::now()));
    half.passes.push_back(grid->RunPass(mem));
    half.passes.back().score_ms = score_sink.Take();
    half.passes.back().explain_ms = explain_sink.Take();
  }
  half.wall_s = SecondsBetween(start, Clock::now());
  half.cpu_s = ProcessCpuSeconds() - cpu_start;
  // Every figure is the median over passes of that pass's value.
  std::map<std::string, std::vector<double>> per_pass;
  for (const PassResult& pass : half.passes) {
    per_pass["grid_s"].push_back(pass.seconds);
    per_pass["grid_cpu_s"].push_back(pass.cpu_s);
    per_pass["score_p50_ms"].push_back(Quantile(pass.score_ms, 0.50));
    per_pass["loadgen.score_p90_ms"].push_back(Quantile(pass.score_ms, 0.90));
    per_pass["loadgen.score_p99_ms"].push_back(Quantile(pass.score_ms, 0.99));
    per_pass["explain_p50_ms"].push_back(Quantile(pass.explain_ms, 0.50));
    per_pass["loadgen.explain_p90_ms"].push_back(
        Quantile(pass.explain_ms, 0.90));
    per_pass["loadgen.explain_p99_ms"].push_back(
        Quantile(pass.explain_ms, 0.99));
  }
  // Latency tails are reported per layer, not gated.
  for (const auto& [name, values] : per_pass) {
    (name.rfind("loadgen.", 0) == 0 ? half.e2e.per_layer
                                    : half.e2e.end_to_end)[name] =
        Median(values);
  }
  std::printf("paper_grid: %zu passes, grid %.3f s median, score p99 %.3f ms, "
              "explain p99 %.3f ms, %zu cells, %zu score calls, %zu explain "
              "calls per pass\n",
              half.passes.size(), half.e2e.end_to_end["grid_s"],
              half.e2e.per_layer["loadgen.score_p99_ms"],
              half.e2e.per_layer["loadgen.explain_p99_ms"],
              half.passes.front().cells.size(),
              half.passes.front().score_ms.size(),
              half.passes.front().explain_ms.size());
  return half;
}

}  // namespace

RunResult RunPaperGrid(Config& config, const RunOptions& options) {
  const int min_passes = static_cast<int>(config.Int("min_passes"));
  const std::uint64_t golden_seed =
      static_cast<std::uint64_t>(config.Int("golden_seed"));
  const std::string golden_file = config.Str("golden_file");
  LatencySink score_sink;
  LatencySink explain_sink;
  MemPeak mem;

  // Set-up (data generation, pool, explainers) runs before every pass.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    return std::make_unique<Grid>(config, options.seed, &score_sink,
                                  &explain_sink);
  };
  const int pool_threads = set_up()->pool_threads();
  config.CheckAllUsed();

  if (options.write_golden) {
    Grid golden(config, golden_seed, &score_sink, &explain_sink);
    const PassResult pass = golden.RunPass(mem);
    std::ofstream out(golden_file);
    out << "# paper_grid cells at seed " << golden_seed
        << ": dataset explainer detector dim MAP mean-recall\n";
    for (const std::string& line : Lines(pass.cells)) out << line << "\n";
    if (!out) throw std::runtime_error("cannot write " + golden_file);
    std::printf("wrote %zu cells to %s\n", pass.cells.size(),
                golden_file.c_str());
    RunResult result;
    result.Attempt(true);
    return result;
  }
  // The golden check runs first and doubles as the untimed warm-up pass
  // (allocator, page cache and code warm before timing starts).
  RunResult result;
  {
    Grid golden(config, golden_seed, &score_sink, &explain_sink);
    CheckCells(golden.RunPass(mem).cells, ReadGolden(golden_file), result,
               "golden");
    score_sink.Take();
    explain_sink.Take();
  }

  std::vector<Half> halves;
  if (options.trace) {
    halves.push_back(MeasureHalf(set_up, options.seconds / 2, min_passes, mem,
                                 score_sink, explain_sink, setup_s));
    Tracer::Global().ResetCounters();
    const EvictionManagerSnapshot mem_before =
        EvictionManager::Global().snapshot();
    Tracer::Global().SetAggregate(true);
    halves.push_back(MeasureHalf(set_up, options.seconds / 2, min_passes, mem,
                                 score_sink, explain_sink, setup_s));
    Tracer::Global().SetAggregate(false);
    const Half& traced = halves.back();
    const double passes = static_cast<double>(traced.passes.size());
    AddTracerMetrics(result, passes);
    ServiceStatsSnapshot service;
    for (const PassResult& pass : traced.passes) {
      service = SumStats(service, pass.service);
    }
    service.hits /= traced.passes.size();
    service.misses /= traced.passes.size();
    service.dedup_joins /= traced.passes.size();
    service.evictions /= traced.passes.size();
    service.compute_ns /= traced.passes.size();
    AddServiceMetrics(result, service);
    result.per_layer["mem.reclaim_passes"] =
        static_cast<double>(EvictionManager::Global().snapshot()
                                .reclaim_passes -
                            mem_before.reclaim_passes) /
        passes;
    result.per_layer["mem.used_bytes_peak"] = static_cast<double>(mem.peak());
    result.per_layer["common.pool_util"] =
        traced.cpu_s / (traced.wall_s * pool_threads);
    AddTracedHalf(result, halves[0].e2e, traced.e2e);
  } else {
    halves.push_back(MeasureHalf(set_up, options.seconds, min_passes, mem,
                                 score_sink, explain_sink, setup_s));
    result.end_to_end = halves[0].e2e.end_to_end;
  }
  result.end_to_end["setup_s"] = Median(setup_s);
  result.end_to_end["peak_rss_mb"] = PeakRssMb();

  // Every measured pass must repeat the first exactly.
  const std::vector<std::string> first = Lines(halves[0].passes[0].cells);
  for (const Half& half : halves) {
    for (const PassResult& pass : half.passes) {
      CheckCells(pass.cells, first, result, "first pass");
    }
  }
  return result;
}

}  // namespace perfbench
