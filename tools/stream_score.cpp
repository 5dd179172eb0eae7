// stream_score — score a ".cols" columnar dataset through the chunked
// larger-than-RAM path under a fixed memory budget.
//
//   stream_score --data <file.cols> [--detector knn|loda|lof]
//                [--budget-mb N] [--subspace 0,1,2] [--k K]
//                [--projections P] [--queries poi|all|3,17,99]
//                [--check-ram] [--stats] [--json]
//                [--trace-out trace.json]
//                [--profile-out profile.folded] [--profile-hz N]
//
// --trace-out enables the process SpanCollector, wraps the streamed scoring
// in a `stream.score` span, and writes everything collected as Chrome
// trace-event JSON loadable in Perfetto or chrome://tracing.
//
// --profile-out arms the SIGPROF sampling profiler for the whole run and
// writes collapsed flamegraph stacks (`stacks... count` lines) on exit —
// feed them to any flamegraph renderer to see where the chunked scoring
// path spends its wall clock (chunk decode vs distance kernels vs
// eviction).
//
// Scoring streams column chunks through the process-wide EvictionManager
// (budget set via --budget-mb), so peak memory stays bounded no matter the
// file size. `--queries poi` (default) scores the file's points of
// interest — the right unit at scale, where all-points kNN would be
// O(n^2); `all` scores every point (kNN/LOF: only sensible for files that
// also fit in RAM). `--check-ram` additionally loads the whole file and
// verifies the streamed scores are bitwise identical to the in-RAM
// detectors — the acceptance check of the chunked path. `--stats` prints
// the eviction-manager snapshot; `--json` wraps everything in one JSON
// object for scripting.
//
// Every numeric value is parsed strictly and range-checked, subspace and
// query ids against the opened file: a malformed or out-of-range value
// prints the usage text and exits 2.

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/json.h"
#include "data/chunked_dataset.h"
#include "data/columnar.h"
#include "detect/chunked_score.h"
#include "detect/knn_distance.h"
#include "detect/loda.h"
#include "detect/lof.h"
#include "fault/fault.h"
#include "mem/eviction_manager.h"
#include "obs/span_collector.h"
#include "obs/trace.h"
#include "prof/perf_counters.h"
#include "prof/sampling_profiler.h"
#include "subspace/subspace.h"

namespace {

// Upper bounds that keep a typo from asking for absurd allocations.
constexpr long long kMaxBudgetMb = 1 << 24;
constexpr int kMaxProjections = 100000;

struct Flags {
  std::string data;
  std::string detector = "knn";
  std::size_t budget_mb = 256;
  std::vector<int> subspace;
  int k = 10;
  int projections = 100;
  std::string queries = "poi";
  std::vector<int> query_ids;  // Parsed --queries list.
  bool check_ram = false;
  bool stats = false;
  bool json = false;
  std::string trace_out;
  std::string profile_out;
  int profile_hz = 0;  // 0 = profiler default rate.
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: stream_score --data <file.cols> [--detector knn|loda|lof]\n"
      "                    [--budget-mb N] [--subspace 0,1,2] [--k K]\n"
      "                    [--projections P] [--queries poi|all|ids,...]\n"
      "                    [--check-ram] [--stats] [--json]\n"
      "                    [--trace-out trace.json]\n"
      "                    [--profile-out profile.folded] [--profile-hz N]\n"
      "  N, K, P >= 1 (P <= %d); subspace ids < the file's columns and\n"
      "  query ids < its rows.\n",
      kMaxProjections);
  return 2;
}

/// Parses all of `s` as a decimal integer in [lo, hi]. Rejects empty,
/// partial ("3x"), signed-looking ("+3", " 3") and out-of-range tokens.
template <typename T>
bool ParseInt(const std::string& s, long long lo, long long hi, T* out) {
  if (s.empty() || !(std::isdigit(static_cast<unsigned char>(s[0])) ||
                     s[0] == '-')) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || value < lo || value > hi) return false;
  *out = static_cast<T>(value);
  return true;
}

/// Parses a comma-separated list of non-negative ids ("0,3,7").
bool ParseIdList(const std::string& s, std::vector<int>* out) {
  out->clear();
  std::size_t begin = 0;
  while (true) {
    const std::size_t comma = s.find(',', begin);
    int id = 0;
    if (!ParseInt(s.substr(begin, comma - begin), 0,
                  std::numeric_limits<int>::max(), &id)) {
      return false;
    }
    out->push_back(id);
    if (comma == std::string::npos) return true;
    begin = comma + 1;
  }
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg == "--data" && i + 1 < argc) {
      flags->data = argv[++i];
    } else if (arg == "--detector" && i + 1 < argc) {
      flags->detector = argv[++i];
      ok = flags->detector == "knn" || flags->detector == "lof" ||
           flags->detector == "loda";
    } else if (arg == "--budget-mb" && i + 1 < argc) {
      ok = ParseInt(argv[++i], 1, kMaxBudgetMb, &flags->budget_mb);
    } else if (arg == "--subspace" && i + 1 < argc) {
      ok = ParseIdList(argv[++i], &flags->subspace);
    } else if (arg == "--k" && i + 1 < argc) {
      ok = ParseInt(argv[++i], 1, kIntMax, &flags->k);
    } else if (arg == "--projections" && i + 1 < argc) {
      ok = ParseInt(argv[++i], 1, kMaxProjections, &flags->projections);
    } else if (arg == "--queries" && i + 1 < argc) {
      flags->queries = argv[++i];
      if (flags->queries != "poi" && flags->queries != "all") {
        ok = ParseIdList(flags->queries, &flags->query_ids);
      }
    } else if (arg == "--check-ram") {
      flags->check_ram = true;
    } else if (arg == "--stats") {
      flags->stats = true;
    } else if (arg == "--json") {
      flags->json = true;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      flags->trace_out = argv[++i];
    } else if (arg == "--profile-out" && i + 1 < argc) {
      flags->profile_out = argv[++i];
    } else if (arg == "--profile-hz" && i + 1 < argc) {
      ok = ParseInt(argv[++i], 0, kIntMax, &flags->profile_hz);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "invalid value for %s: %s\n", arg.c_str(),
                   argv[i]);
      return false;
    }
  }
  return !flags->data.empty();
}

double Checksum(const std::vector<double>& scores) {
  double sum = 0.0;
  for (double s : scores) sum += s;
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();

  // Chaos opt-in: SUBEX_FAULT_SPEC / SUBEX_FAULT_SEED arm injection points
  // process-wide. With the variables unset this is a no-op.
  subex::FaultRegistry::Global().ConfigureFromEnv();

  subex::EvictionManager& manager = subex::EvictionManager::Global();
  manager.SetBudget(flags.budget_mb << 20);
  if (!flags.trace_out.empty()) {
    subex::SpanCollector::Global().Enable(
        /*ring_capacity_per_thread=*/1 << 14);
  }
  subex::RegisterProfProcessMetrics();
  if (!flags.profile_out.empty()) {
    subex::SamplingProfilerOptions prof_options;
    if (flags.profile_hz > 0) {
      prof_options.sample_hz = static_cast<std::uint32_t>(flags.profile_hz);
    }
    std::string prof_error;
    if (!subex::SamplingProfiler::Global().Start(prof_options, &prof_error)) {
      std::fprintf(stderr, "profiler disabled: %s\n", prof_error.c_str());
    }
  }

  auto open = subex::ChunkedDataset::Open(flags.data);
  if (!open.ok) {
    std::fprintf(stderr, "error: %s\n", open.error.c_str());
    return 1;
  }
  subex::ChunkedDataset& data = *open.dataset;

  for (int f : flags.subspace) {
    if (static_cast<std::size_t>(f) >= data.num_cols()) {
      std::fprintf(stderr,
                   "error: subspace feature %d out of range (%zu columns)\n",
                   f, data.num_cols());
      return Usage();
    }
  }
  const std::size_t min_rows = flags.detector == "loda" ? 3 : 2;
  if (data.num_rows() < min_rows) {
    std::fprintf(stderr, "error: %s needs at least %zu rows, %s has %zu\n",
                 flags.detector.c_str(), min_rows, flags.data.c_str(),
                 data.num_rows());
    return 1;
  }

  std::vector<int> queries;  // Empty = all points.
  if (flags.queries == "poi") {
    queries = data.outlier_indices();
    if (queries.empty() && flags.detector != "loda") {
      std::fprintf(stderr,
                   "error: %s has no points of interest; pass --queries all "
                   "or an explicit id list\n",
                   flags.data.c_str());
      return 1;
    }
  } else if (flags.queries != "all") {
    queries = flags.query_ids;
    for (int q : queries) {
      if (static_cast<std::size_t>(q) >= data.num_rows()) {
        std::fprintf(stderr, "error: query %d out of range (%zu rows)\n", q,
                     data.num_rows());
        return Usage();
      }
    }
  }

  const subex::Subspace subspace(flags.subspace);
  subex::Loda::Options loda_options;
  loda_options.num_projections = flags.projections;

  const auto start = std::chrono::steady_clock::now();
  std::vector<double> scores;
  if (flags.detector == "knn") {
    scores = subex::ScoreKnnDistanceChunked(
        data, subspace, flags.k, subex::KnnDistance::Aggregation::kMean,
        queries);
  } else if (flags.detector == "lof") {
    scores = subex::ScoreLofChunked(data, subspace, flags.k, queries);
  } else {
    scores = subex::ScoreLodaChunked(data, subspace, loda_options);
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  subex::RecordCompletedSpan(
      "stream.score", start,
      static_cast<std::uint64_t>(elapsed_ms * 1e6));

  // Cross-check: load the whole file into RAM and compare bitwise. LODA
  // scores all points; the distance detectors are compared at the queried
  // points only.
  bool checked = false;
  bool identical = false;
  if (flags.check_ram) {
    const subex::ColumnarReadResult in_ram =
        subex::ReadColumnarDataset(flags.data);
    if (!in_ram.ok) {
      std::fprintf(stderr, "error: %s\n", in_ram.error.c_str());
      return 1;
    }
    std::vector<double> reference;
    if (flags.detector == "knn") {
      reference = subex::KnnDistance(flags.k,
                                     subex::KnnDistance::Aggregation::kMean)
                      .Score(in_ram.dataset, subspace);
    } else if (flags.detector == "lof") {
      reference = subex::Lof(flags.k).Score(in_ram.dataset, subspace);
    } else {
      reference = subex::Loda(loda_options).Score(in_ram.dataset, subspace);
    }
    checked = true;
    identical = true;
    if (flags.detector == "loda" || queries.empty()) {
      identical = scores.size() == reference.size();
      for (std::size_t i = 0; identical && i < scores.size(); ++i) {
        // Bitwise: NaN != NaN under ==, but the detectors never emit NaN on
        // finite input, so plain equality is the right comparison.
        if (scores[i] != reference[i]) identical = false;
      }
    } else {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        if (scores[i] != reference[static_cast<std::size_t>(queries[i])]) {
          identical = false;
        }
      }
    }
  }

  const subex::ChunkedDatasetStats chunk_stats = data.stats();
  const subex::EvictionManagerSnapshot snapshot = manager.snapshot();

  if (flags.json) {
    subex::JsonObject obj;
    obj.Add("file", flags.data)
        .Add("detector", flags.detector)
        .Add("rows", static_cast<std::uint64_t>(data.num_rows()))
        .Add("cols", static_cast<std::uint64_t>(data.num_cols()))
        .Add("budget_mb", static_cast<std::uint64_t>(flags.budget_mb))
        .Add("scored", static_cast<std::uint64_t>(scores.size()))
        .Add("elapsed_ms", elapsed_ms)
        .Add("checksum", Checksum(scores))
        .Add("chunk_loads", chunk_stats.loads)
        .Add("chunk_hits", chunk_stats.hits)
        .Add("chunk_evictions", chunk_stats.evictions);
    if (checked) obj.Add("identical_to_ram", identical);
    if (flags.stats) obj.AddRaw("mem", snapshot.ToJson());
    std::printf("%s\n", obj.Build().c_str());
  } else {
    std::printf("scored %zu point%s in %.1f ms (detector=%s, budget=%zu MB)\n",
                scores.size(), scores.size() == 1 ? "" : "s", elapsed_ms,
                flags.detector.c_str(), flags.budget_mb);
    std::printf("chunk loads=%llu hits=%llu evictions=%llu, checksum=%.17g\n",
                static_cast<unsigned long long>(chunk_stats.loads),
                static_cast<unsigned long long>(chunk_stats.hits),
                static_cast<unsigned long long>(chunk_stats.evictions),
                Checksum(scores));
    if (checked) {
      std::printf("in-RAM cross-check: %s\n",
                  identical ? "bitwise identical" : "MISMATCH");
    }
    if (flags.stats) std::printf("mem: %s\n", snapshot.ToJson().c_str());
  }
  if (!flags.trace_out.empty()) {
    const std::string trace_json =
        subex::SpanCollector::Global().ToChromeTraceJson();
    std::FILE* file = std::fopen(flags.trace_out.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   flags.trace_out.c_str());
      return 1;
    }
    std::fwrite(trace_json.data(), 1, trace_json.size(), file);
    std::fclose(file);
  }
  if (!flags.profile_out.empty()) {
    subex::SamplingProfiler& profiler = subex::SamplingProfiler::Global();
    profiler.Stop();
    const std::string folded = profiler.ToCollapsedText();
    std::FILE* file = std::fopen(flags.profile_out.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   flags.profile_out.c_str());
      return 1;
    }
    std::fwrite(folded.data(), 1, folded.size(), file);
    std::fclose(file);
    std::fprintf(stderr, "wrote %llu profile samples (%llu dropped) to %s\n",
                 static_cast<unsigned long long>(profiler.samples()),
                 static_cast<unsigned long long>(profiler.dropped()),
                 flags.profile_out.c_str());
  }
  return (checked && !identical) ? 1 : 0;
}
