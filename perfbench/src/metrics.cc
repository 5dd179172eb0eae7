// Metric names shared by every workload, and the per-layer metrics read off
// the tracer and the library's own counter snapshots.

#include <algorithm>
#include <atomic>

#include "layers.h"
#include "workloads.h"

namespace perfbench {

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s",      "peak_rss_mb",  "grid_s",
      "grid_cpu_s",   "score_p50_ms", "explain_p50_ms",
  };
  return names;
}

namespace {

const char* const kDetectors[] = {"LOF", "FastABOD", "iForest"};
const char* const kExplainers[] = {"Beam", "RefOut", "LookOut", "HiCS"};
// End-to-end metrics both halves of a traced run measure.
const char* const kOverheadMetrics[] = {"grid_s", "grid_cpu_s",
                                        "score_p50_ms", "explain_p50_ms"};
// Latency tails, reported per layer from the traced half.
const char* const kTails[] = {"loadgen.score_p90_ms", "loadgen.score_p99_ms",
                              "loadgen.explain_p90_ms",
                              "loadgen.explain_p99_ms"};

}  // namespace

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const char* d : kDetectors) {
      out.push_back(std::string("detect.") + d + ".calls");
      out.push_back(std::string("detect.") + d + ".busy_s");
    }
    for (const char* m : {"requests", "hit_rate", "dedup_joins", "evictions",
                          "compute_s"}) {
      out.push_back(std::string("serve.") + m);
    }
    out.push_back("mem.reclaim_passes");
    out.push_back("mem.used_bytes_peak");
    for (const char* e : kExplainers) {
      for (const char* m : {".calls", ".busy_s", ".self_s"}) {
        out.push_back(std::string("explain.") + e + m);
      }
    }
    out.push_back("core.cells");
    out.push_back("core.busy_s");
    out.push_back("common.pool_util");
    for (const char* m : {"requests", "busy_rejections", "retries",
                          "self_s"}) {
      out.push_back(std::string("net.") + m);
    }
    for (const char* m :
         {"advances", "epochs_invalidated", "stale_serves", "reindex_busy_s",
          "ingest_rtt_p50_ms", "ingest_p99_ms", "stale_fraction"}) {
      out.push_back(std::string("online.") + m);
    }
    out.push_back("loadgen.late_ms_p99");
    for (const char* tail : kTails) out.push_back(tail);
    for (const char* m : kOverheadMetrics) {
      out.push_back(std::string("trace.overhead.") + m);
    }
    return out;
  }();
  return names;
}

void AddTracerMetrics(RunResult& result, double per) {
  const Tracer& tracer = Tracer::Global();
  for (const char* d : kDetectors) {
    const std::string prefix = std::string("detect.") + d;
    const Tracer::Totals t = tracer.Sum(prefix);
    result.per_layer[prefix + ".calls"] = static_cast<double>(t.calls) / per;
    result.per_layer[prefix + ".busy_s"] = t.busy_s / per;
  }
  for (const char* e : kExplainers) {
    const std::string prefix = std::string("explain.") + e;
    const Tracer::Totals t = tracer.Sum(prefix);
    result.per_layer[prefix + ".calls"] = static_cast<double>(t.calls) / per;
    result.per_layer[prefix + ".busy_s"] = t.busy_s / per;
    result.per_layer[prefix + ".self_s"] = t.self_s / per;
  }
  const Tracer::Totals core = tracer.Sum("core.");
  result.per_layer["core.cells"] = static_cast<double>(core.calls) / per;
  result.per_layer["core.busy_s"] = core.busy_s / per;
}

void AddServiceMetrics(RunResult& result,
                       const subex::ServiceStatsSnapshot& service) {
  result.per_layer["serve.requests"] =
      static_cast<double>(service.Requests());
  result.per_layer["serve.hit_rate"] = service.HitRate();
  result.per_layer["serve.dedup_joins"] =
      static_cast<double>(service.dedup_joins);
  result.per_layer["serve.evictions"] = static_cast<double>(service.evictions);
  result.per_layer["serve.compute_s"] = service.ComputeSeconds();
}

void AddNetMetrics(RunResult& result, const subex::ClientStatsSnapshot& client,
                   std::uint64_t busy_rejections) {
  const Tracer& tracer = Tracer::Global();
  // Client round trips minus the time the server spent inside the
  // decorated library calls it made for them: socket, framing, queueing
  // and dispatch.
  const double rtt_s = tracer.Sum("net.").busy_s;
  const double server_s =
      tracer.Sum("detect.").root_s + tracer.Sum("explain.").root_s;
  result.per_layer["net.requests"] = static_cast<double>(client.requests);
  result.per_layer["net.busy_rejections"] =
      static_cast<double>(busy_rejections);
  result.per_layer["net.retries"] = static_cast<double>(client.busy_retries);
  result.per_layer["net.self_s"] = std::max(0.0, rtt_s - server_s);
}

void AddTracedHalf(RunResult& result, const RunResult& untraced,
                   const RunResult& traced) {
  for (const char* m : kOverheadMetrics) {
    const double base = untraced.end_to_end.at(m);
    result.per_layer[std::string("trace.overhead.") + m] =
        base > 0.0 ? traced.end_to_end.at(m) / base : 0.0;
  }
  for (const char* tail : kTails) {
    result.per_layer[tail] = traced.per_layer.at(tail);
  }
}

subex::ServiceStatsSnapshot SumStats(const subex::ServiceStatsSnapshot& a,
                                     const subex::ServiceStatsSnapshot& b) {
  subex::ServiceStatsSnapshot sum = a;
  sum.hits += b.hits;
  sum.misses += b.misses;
  sum.dedup_joins += b.dedup_joins;
  sum.evictions += b.evictions;
  sum.compute_ns += b.compute_ns;
  return sum;
}

void MemPeak::Sample() {
  const std::size_t used = subex::EvictionManager::Global().used_bytes();
  std::size_t seen = peak_.load();
  while (used > seen && !peak_.compare_exchange_weak(seen, used)) {
  }
}

}  // namespace perfbench
