#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "mem/eviction_manager.h"
#include "net/explain_client.h"
#include "serve/service_stats.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: the measured window is split into an untraced half and a
  /// traced half; per-layer metrics come from the traced half.
  bool trace = false;
  /// paper_grid only: rewrite the golden file instead of checking it.
  bool write_golden = false;
};

RunResult RunPaperGrid(Config& config, const RunOptions& options);
RunResult RunStreamOnline(Config& config, const RunOptions& options);

/// Every end-to-end metric, in report order. Each workload sets all of them.
const std::vector<std::string>& EndToEndMetricNames();
/// Every per-layer metric, in report order. Layers a workload does not use
/// report 0.
const std::vector<std::string>& PerLayerMetricNames();

/// The detector/explainer layer metrics read off the tracer, divided by
/// `per` (1 for totals, the number of traced passes for per-pass values).
void AddTracerMetrics(RunResult& result, double per);
/// serve.* from summed service counters.
void AddServiceMetrics(RunResult& result,
                       const subex::ServiceStatsSnapshot& service);
/// net.* from client and server counters plus the tracer's net.client
/// round-trip spans.
void AddNetMetrics(RunResult& result, const subex::ClientStatsSnapshot& client,
                   std::uint64_t busy_rejections);
/// From the two halves of a traced run: trace.overhead.<metric> = traced /
/// untraced value, and the traced half's latency tails.
void AddTracedHalf(RunResult& result, const RunResult& untraced,
                   const RunResult& traced);

/// Element-wise sum of service counters.
subex::ServiceStatsSnapshot SumStats(const subex::ServiceStatsSnapshot& a,
                                     const subex::ServiceStatsSnapshot& b);

/// Highest used-bytes reading of the process-wide eviction manager seen by
/// `Sample`, which any thread may call.
class MemPeak {
 public:
  void Sample();
  std::size_t peak() const { return peak_.load(); }

 private:
  std::atomic<std::size_t> peak_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
