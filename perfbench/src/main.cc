// Benchmark binary: runs one workload and prints, as its last line,
//   RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{name:value}}
// with the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). perfbench/run.py builds it, passes the workload's config
// from perfbench/workloads.json and attaches the units.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--inject none|detect|explain] [--write-golden]
//                  [--set key=value]...

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/json.h"
#include "layers.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// Share of a call's own time the sensitivity injection adds.
constexpr double kInjectFraction = 0.2;

const char kUsage[] =
    "usage: perfbench --workload paper_grid|stream_online\n"
    "                 --seed N --seconds S --trace 0|1\n"
    "                 [--inject none|detect|explain] [--write-golden]\n"
    "                 [--set key=value]...\n";

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

long long ParseNumber(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || value < 0) {
    UsageError(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return value;
}

void PrintResult(const RunResult& result, bool trace) {
  subex::JsonObject metrics;
  const auto& names = trace ? PerLayerMetricNames() : EndToEndMetricNames();
  const auto& values = trace ? result.per_layer : result.end_to_end;
  for (const std::string& name : names) {
    const auto it = values.find(name);
    metrics.Add(name, it == values.end() ? 0.0 : it->second);
  }
  const bool correct = result.checks > 0 && result.check_mismatches == 0;
  std::printf("checks: %llu compared, %llu mismatched\n",
              static_cast<unsigned long long>(result.checks),
              static_cast<unsigned long long>(result.check_mismatches));
  std::printf("RESULT %s\n",
              subex::JsonObject()
                  .Add("correct", correct)
                  .Add("attempted", result.attempted)
                  .Add("failed", result.failed)
                  .AddRaw("metrics", metrics.Build())
                  .Build()
                  .c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  std::string inject = "none";
  bool have_seed = false, have_seconds = false, have_trace = false;
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::printf("%s", kUsage);
      return 0;
    }
    if (flag == "--write-golden") {
      options.write_golden = true;
      continue;
    }
    if (i + 1 >= argc) UsageError("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(ParseNumber(flag, value));
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(ParseNumber(flag, value));
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") UsageError("--trace must be 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--inject") {
      if (value != "none" && value != "detect" && value != "explain") {
        UsageError("--inject must be none, detect or explain");
      }
      inject = value;
    } else if (flag == "--set") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0) {
        UsageError("--set needs key=value, got '" + value + "'");
      }
      config.Set(value.substr(0, eq), value.substr(eq + 1));
    } else {
      UsageError("unknown flag " + flag);
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    UsageError("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  Tracer::Global().SetInjection(inject == "none" ? "" : inject,
                                kInjectFraction);
  std::printf("build: %s %s\n", PERFBENCH_CXX_COMPILER, SUBEX_BUILD_TYPE);

  try {
    RunResult result;
    if (workload == "paper_grid") {
      result = RunPaperGrid(config, options);
    } else if (workload == "stream_online") {
      result = RunStreamOnline(config, options);
    } else {
      UsageError("unknown workload " + workload);
    }
    config.CheckAllUsed();
    if (options.write_golden) return 0;
    PrintResult(result, options.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
