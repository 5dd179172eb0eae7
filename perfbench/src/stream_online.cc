// stream_online: open-loop ingest of a drifting stream at a fixed rows/s,
// alongside open-loop kOnlineScore (LODA/LOF) and kOnlineExplain (Beam over
// LODA) requests at a fixed rate.
//
// The only write-heavy workload: every window advance invalidates the
// per-epoch cache and LOF re-indexes the window, so src/online does most of
// the work here and none elsewhere. A faster kNN kernel or cache policy
// should barely show, which makes this the control for such changes.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "layers.h"
#include "loadgen.h"
#include "subex/subex.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace subex;

constexpr const char* kDataset = "stream";

struct Settings {
  explicit Settings(Config& config) {
    for (long long d : config.IntList("planted_dims")) {
      planted_dims.push_back(static_cast<int>(d));
    }
    chunk_size = static_cast<int>(config.Int("chunk_size"));
    drift_every_chunks = static_cast<int>(config.Int("drift_every_chunks"));
    window_capacity = static_cast<std::size_t>(config.Int("window_capacity"));
    advance_every = static_cast<std::size_t>(config.Int("advance_every"));
    loda_projections = static_cast<int>(config.Int("loda_projections"));
    lof_k = static_cast<int>(config.Int("lof_k"));
    ingest_rows_per_s = config.Double("ingest_rows_per_s");
    batch_rows = static_cast<std::uint32_t>(config.Int("batch_rows"));
    request_rps = config.Double("request_rps");
    lof_share = config.Double("lof_share");
    explain_share = config.Double("explain_share");
    explain_dim = static_cast<int>(config.Int("explain_dim"));
    max_results = static_cast<std::uint32_t>(config.Int("max_results"));
    pool_threads = static_cast<int>(config.Int("pool_threads"));
    grid_rounds = static_cast<std::size_t>(config.Int("grid_rounds"));
    stretches = static_cast<std::size_t>(config.Int("stretches"));
    grid_explains = static_cast<std::size_t>(config.Int("grid_explains"));
    cpus = static_cast<int>(config.Int("cpus"));
  }

  std::vector<int> planted_dims;
  int chunk_size;
  int drift_every_chunks;
  std::size_t window_capacity;
  std::size_t advance_every;
  int loda_projections;
  int lof_k;
  double ingest_rows_per_s;
  std::uint32_t batch_rows;
  double request_rps;
  double lof_share;
  double explain_share;
  int explain_dim;
  std::uint32_t max_results;
  int pool_threads;
  std::size_t grid_rounds;
  std::size_t stretches;
  std::size_t grid_explains;
  int cpus;
};

/// Confines the calling thread, and so every thread it starts later, to the
/// last `cpus` CPUs it may run on. On a shared VM host a hand-off to an idle
/// vCPU waits until the host schedules that vCPU, a delay set by other
/// tenants' load; on one CPU the client, I/O and pool threads hand a request
/// on by context switch instead.
void PinToCpus(int cpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("stream_online: sched_getaffinity failed");
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int left = cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && left > 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      --left;
    }
  }
  if (cpus < 1 || left > 0) {
    throw std::runtime_error("stream_online: cannot pin to " +
                             std::to_string(cpus) + " CPUs");
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    throw std::runtime_error("stream_online: sched_setaffinity failed");
  }
}

/// One online request of the generated traffic.
struct Request {
  bool explain = false;
  bool lof = false;  // kOnlineScore detector: LOF (re-index) or LODA.
  Subspace subspace;
  int point = 0;
};

/// Server, online dataset and the stream feeding it.
class Stack {
 public:
  /// `feed_rows` stream rows are generated up front, as part of set-up.
  Stack(const Settings& s, std::uint64_t seed, std::size_t feed_rows)
      : settings_(s),
        lof_(s.lof_k),
        timed_lof_(lof_, Tracer::Global().Slot("detect.LOF")),
        timed_beam_(beam_, Tracer::Global().Slot("explain.Beam"),
                    Tracer::Global().Slot("online.score")) {
    DriftingStreamConfig stream_config;
    stream_config.chunk_size = s.chunk_size;
    stream_config.drift_every_chunks = s.drift_every_chunks;
    stream_config.subspace_dims = s.planted_dims;
    stream_config.seed = seed;
    stream_ = std::make_unique<DriftingStreamGenerator>(stream_config);
    Generate(feed_rows);
    OnlineDatasetOptions dataset_options;
    dataset_options.name = kDataset;
    dataset_options.window_capacity = s.window_capacity;
    dataset_options.advance_every = s.advance_every;
    dataset_options.min_score_window = s.advance_every;
    dataset_ = std::make_unique<OnlineDataset>(
        dataset_options, static_cast<std::size_t>(stream_->num_features()));
    Loda::Options loda_options;
    loda_options.num_projections = s.loda_projections;
    dataset_->AddLoda("LODA", loda_options);
    dataset_->AddReindexDetector("LOF", timed_lof_);
    pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(s.pool_threads));
    server_ = std::make_unique<ExplainServer>(ExplainServerOptions{},
                                              pool_.get());
    server_->RegisterOnlineDataset(*dataset_);
    server_->RegisterExplainer("Beam", timed_beam_);
    std::string error;
    if (!server_->Start(&error)) {
      throw std::runtime_error("stream_online: server start: " + error);
    }
    // Fill the window so every explain target index is valid from here on.
    ExplainClient client = Connect();
    const ExplainClient::IngestReply reply =
        client.Ingest(kDataset, static_cast<std::uint32_t>(s.window_capacity),
                      Rows(s.window_capacity));
    if (!reply.ok()) {
      throw std::runtime_error("stream_online: warm-up ingest: " +
                               reply.error);
    }
  }

  ~Stack() {
    if (server_ != nullptr) server_->Stop();
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  ExplainClient Connect() {
    ExplainClient client;
    std::string error;
    if (!client.Connect("127.0.0.1", server_->port(), &error)) {
      throw std::runtime_error("stream_online: connect: " + error);
    }
    return client;
  }

  /// The next `n` stream rows, row-major.
  std::vector<double> Rows(std::size_t n) {
    Generate(n);
    const std::size_t values =
        n * static_cast<std::size_t>(stream_->num_features());
    const auto first = buffered_.begin() + static_cast<std::ptrdiff_t>(cursor_);
    cursor_ += values;
    return std::vector<double>(first,
                               first + static_cast<std::ptrdiff_t>(values));
  }

  std::vector<Request> Traffic(std::size_t count, std::uint64_t seed) const {
    Rng rng(seed);
    const int d = stream_->num_features();
    std::vector<Request> requests(count);
    for (Request& r : requests) {
      r.explain = rng.Uniform(0.0, 1.0) < settings_.explain_share;
      r.lof = rng.Uniform(0.0, 1.0) < settings_.lof_share;
      const int a = rng.UniformInt(0, d - 1);
      int b = rng.UniformInt(0, d - 2);
      if (b >= a) ++b;
      r.subspace = Subspace({a, b});
      r.point = rng.UniformInt(
          0, static_cast<int>(settings_.window_capacity) - 1);
    }
    return requests;
  }

  OnlineDataset& dataset() { return *dataset_; }
  ExplainServer& server() { return *server_; }
  const Lof& lof() const { return lof_; }
  const Beam& beam() const { return beam_; }

 private:
  /// Makes sure `n` rows past the cursor are buffered.
  void Generate(std::size_t n) {
    const std::size_t width = static_cast<std::size_t>(stream_->num_features());
    while (buffered_.size() < cursor_ + n * width) {
      const StreamChunk chunk = stream_->Next();
      for (std::size_t r = 0; r < chunk.points.rows(); ++r) {
        for (std::size_t f = 0; f < chunk.points.cols(); ++f) {
          buffered_.push_back(chunk.points(r, f));
        }
      }
    }
  }

  const Settings& settings_;
  Lof lof_;
  TimedDetector timed_lof_;
  Beam beam_;
  TimedPointExplainer timed_beam_;
  std::unique_ptr<DriftingStreamGenerator> stream_;
  std::vector<double> buffered_;
  std::size_t cursor_ = 0;
  std::unique_ptr<OnlineDataset> dataset_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ExplainServer> server_;
};

/// What one stretch of traffic produced; latencies are timed from when each
/// request or batch was due.
struct Phase {
  /// Appends a later stretch of the schedule.
  void Merge(const Phase& other) {
    score.Merge(other.score, requests);
    explain.Merge(other.explain, requests);
    late.Merge(other.late, requests);
    ingest.Merge(other.ingest, batches);
    ingest_rtt.Merge(other.ingest_rtt, batches);
    ingest_late.Merge(other.ingest_late, batches);
    requests += other.requests;
    batches += other.batches;
    failed += other.failed;
    explains += other.explains;
    stale += other.stale;
    client.Merge(other.client);
  }

  WindowedSamples score;
  WindowedSamples explain;
  WindowedSamples ingest;
  WindowedSamples ingest_rtt;  // From when each batch was sent.
  WindowedSamples late;         // Requests sent after they were due.
  WindowedSamples ingest_late;  // Batches sent after they were due.
  std::size_t requests = 0;     // Scheduled, for index offsets in Merge.
  std::size_t batches = 0;
  std::uint64_t failed = 0;  // Requests and batches.
  std::uint64_t explains = 0;
  std::uint64_t stale = 0;
  ClientStatsSnapshot client;
};

LayerSlot* NetSlot() {
  static LayerSlot* const slot = Tracer::Global().Slot("net.client");
  return slot;
}

/// Open-loop ingest and online requests, side by side, for `seconds`.
Phase RunTraffic(Stack& stack, const Settings& s, double seconds,
                 std::uint64_t seed) {
  const double batch_rate =
      s.ingest_rows_per_s / static_cast<double>(s.batch_rows);
  const auto batches = static_cast<std::size_t>(batch_rate * seconds);
  std::vector<std::vector<double>> feed;
  for (std::size_t i = 0; i < batches; ++i) {
    feed.push_back(stack.Rows(s.batch_rows));
  }
  const std::vector<Request> requests = stack.Traffic(
      static_cast<std::size_t>(s.request_rps * seconds), seed);
  Phase phase;
  std::uint64_t ingest_failed = 0;  // Written by the ingest thread only.
  ExplainClient ingest_client = stack.Connect();
  ExplainClient request_client = stack.Connect();

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::jthread ingest_thread([&] {
    RunOpenLoop(feed.size(), batch_rate, start,
                [&](std::size_t i, Clock::time_point due) {
                  const Clock::time_point sent = Clock::now();
                  phase.ingest_late.Add(i, MsBetween(due, sent));
                  bool ok;
                  {
                    Span span(NetSlot());
                    ok = ingest_client
                             .Ingest(kDataset, s.batch_rows,
                                     std::move(feed[i]))
                             .ok();
                  }
                  const Clock::time_point done = Clock::now();
                  phase.ingest.Add(i, MsBetween(due, done));
                  phase.ingest_rtt.Add(i, MsBetween(sent, done));
                  if (!ok) ++ingest_failed;
                });
  });
  RunOpenLoop(
      requests.size(), s.request_rps, start,
      [&](std::size_t i, Clock::time_point due) {
        phase.late.Add(i, MsBetween(due, Clock::now()));
        const Request& r = requests[i];
        bool ok;
        {
          Span span(NetSlot());
          if (r.explain) {
            const ExplainClient::OnlineExplainReply reply =
                request_client.OnlineExplain(kDataset, "LODA", "Beam", r.point,
                                             s.explain_dim, s.max_results);
            ok = reply.ok();
            if (ok) {
              ++phase.explains;
              if (reply.stale()) ++phase.stale;
            }
          } else {
            ok = request_client
                     .OnlineScore(kDataset, r.lof ? "LOF" : "LODA",
                                  r.subspace)
                     .ok();
          }
        }
        (r.explain ? phase.explain : phase.score)
            .Add(i, MsBetween(due, Clock::now()));
        if (!ok) ++phase.failed;
      });
  ingest_thread.join();
  phase.failed += ingest_failed;
  phase.client = ingest_client.stats();
  phase.client.Merge(request_client.stats());
  phase.requests = requests.size();
  phase.batches = feed.size();
  return phase;
}

struct GridPass {
  std::vector<double> round_s;
  std::vector<double> round_cpu_s;  // Process CPU time, server included.
  ClientStatsSnapshot client;
};

/// The clean verification pass, closed loop on one connection, in rounds:
/// exactly one window advance, then every 2d subspace scored with LOF (a
/// re-index) and LODA, then a few explains. Each reply is checked against
/// the same computation in process on the round's epoch; the check is not
/// timed. Client calls are net spans, like those of the open-loop traffic.
GridPass RunGrid(Stack& stack, const Settings& s, std::uint64_t seed,
                 RunResult& result) {
  GridPass pass;
  OnlineDataset& dataset = stack.dataset();
  dataset.Flush();
  const std::vector<Subspace> subspaces =
      EnumerateSubspaces(static_cast<int>(dataset.num_features()), 2);
  const std::vector<Request> explain_requests =
      stack.Traffic(s.grid_rounds * s.grid_explains, seed);
  ExplainClient client = stack.Connect();
  for (std::size_t round = 0; round < s.grid_rounds; ++round) {
    std::vector<double> rows = stack.Rows(s.advance_every);
    std::vector<ExplainClient::OnlineScoreReply> lof, loda;
    std::vector<ExplainClient::OnlineExplainReply> explains;
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    bool ingested;
    {
      Span span(NetSlot());
      ingested =
          client
              .Ingest(kDataset, static_cast<std::uint32_t>(s.advance_every),
                      std::move(rows))
              .ok();
    }
    for (const Subspace& subspace : subspaces) {
      {
        Span span(NetSlot());
        lof.push_back(client.OnlineScore(kDataset, "LOF", subspace));
      }
      Span span(NetSlot());
      loda.push_back(client.OnlineScore(kDataset, "LODA", subspace));
    }
    for (std::size_t i = 0; i < s.grid_explains; ++i) {
      Span span(NetSlot());
      explains.push_back(client.OnlineExplain(
          kDataset, "LODA", "Beam",
          explain_requests[round * s.grid_explains + i].point, s.explain_dim,
          s.max_results));
    }
    pass.round_s.push_back(SecondsBetween(start, Clock::now()));
    pass.round_cpu_s.push_back(ProcessCpuSeconds() - cpu_start);

    const OnlineDataset::EpochSnapshot snapshot = dataset.Snapshot();
    result.Check(ingested);
    for (std::size_t i = 0; i < subspaces.size(); ++i) {
      const bool match =
          lof[i].ok() && lof[i].epoch == snapshot.epoch &&
          lof[i].scores ==
              ScoreStandardized(stack.lof(), *snapshot.data, subspaces[i]) &&
          loda[i].ok() && loda[i].epoch == snapshot.epoch;
      if (!match) std::printf("MISMATCH: kOnlineScore round %zu\n", round);
      result.Check(match);
    }
    const PinnedEpochDetector pinned(dataset, snapshot, "LODA");
    for (std::size_t i = 0; i < explains.size(); ++i) {
      const int point = explain_requests[round * s.grid_explains + i].point;
      RankedSubspaces expected =
          stack.beam().Explain(*snapshot.data, pinned, point, s.explain_dim);
      expected.subspaces.resize(
          std::min<std::size_t>(expected.size(), s.max_results));
      expected.scores.resize(expected.subspaces.size());
      const bool match = explains[i].ok() &&
                         explains[i].computed_epoch == snapshot.epoch &&
                         explains[i].ranking.subspaces == expected.subspaces &&
                         explains[i].ranking.scores == expected.scores;
      if (!match) std::printf("MISMATCH: kOnlineExplain round %zu\n", round);
      result.Check(match);
    }
  }
  pass.client = client.stats();
  return pass;
}

struct Half {
  RunResult e2e;
  Phase traffic;
  ClientStatsSnapshot grid_client;
};

/// Open-loop traffic in `stretches` stretches, each followed by a
/// verification pass. Latencies pool the stretches; grid_s (grid_cpu_s) is
/// the length (CPU time) of a pass at its median round, so a stall confined
/// to a few rounds does not move it.
Half MeasureHalf(Stack& stack, const Settings& s, double seconds,
                 std::uint64_t seed, const std::function<void()>& time_setup,
                 RunResult& result) {
  Half half;
  std::vector<double> round_s, round_cpu_s;
  for (std::size_t k = 0; k < s.stretches; ++k) {
    half.traffic.Merge(RunTraffic(
        stack, s, seconds / static_cast<double>(s.stretches), seed + k));
    const GridPass grid = RunGrid(stack, s, seed ^ (0x9e1du + k), result);
    round_s.insert(round_s.end(), grid.round_s.begin(), grid.round_s.end());
    round_cpu_s.insert(round_cpu_s.end(), grid.round_cpu_s.begin(),
                       grid.round_cpu_s.end());
    half.grid_client.Merge(grid.client);
    time_setup();
  }
  const double grid_s =
      Median(round_s) * static_cast<double>(s.grid_rounds);
  const Phase& t = half.traffic;
  result.attempted += t.requests + t.batches;
  result.failed += t.failed;
  half.e2e.end_to_end["grid_s"] = grid_s;
  half.e2e.end_to_end["grid_cpu_s"] =
      Median(round_cpu_s) * static_cast<double>(s.grid_rounds);
  half.e2e.end_to_end["score_p50_ms"] = t.score.Quantile(0.50);
  half.e2e.per_layer["loadgen.score_p90_ms"] = t.score.Quantile(0.90);
  half.e2e.per_layer["loadgen.score_p99_ms"] = t.score.Quantile(0.99);
  half.e2e.end_to_end["explain_p50_ms"] = t.explain.Quantile(0.50);
  half.e2e.per_layer["loadgen.explain_p90_ms"] = t.explain.Quantile(0.90);
  half.e2e.per_layer["loadgen.explain_p99_ms"] = t.explain.Quantile(0.99);
  std::printf(
      "stream_online: %zu scores, %zu explains (%llu stale), %zu ingest "
      "batches; score p99 %.3f ms, explain p99 %.3f ms, ingest p99 %.3f ms, "
      "late p99 %.3f ms, %llu failed; grid %.3f s\n",
      t.score.size(), t.explain.size(),
      static_cast<unsigned long long>(t.stale), t.ingest.size(),
      t.score.Quantile(0.99), t.explain.Quantile(0.99),
      t.ingest.Quantile(0.99),
      std::max(t.late.Quantile(0.99), t.ingest_late.Quantile(0.99)),
      static_cast<unsigned long long>(t.failed), grid_s);
  return half;
}

}  // namespace

RunResult RunStreamOnline(Config& config, const RunOptions& options) {
  const Settings s(config);
  config.CheckAllUsed();
  PinToCpus(s.cpus);
  // Set-up is timed once before the traffic and again, on a throwaway
  // stack, after every stretch, so its median spreads over the run.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    auto stack = std::make_unique<Stack>(
        s, options.seed,
        static_cast<std::size_t>(s.ingest_rows_per_s * options.seconds) +
            s.window_capacity + 2 * s.advance_every);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    return stack;
  };
  const std::unique_ptr<Stack> stack = set_up();
  // The throwaway stack's window fill re-indexes LOF: set-up work that the
  // per-layer counters of the measured traffic must not include.
  const std::function<void()> time_setup = [&] {
    const bool traced = Tracer::Global().aggregate();
    Tracer::Global().SetAggregate(false);
    set_up();
    Tracer::Global().SetAggregate(traced);
  };

  RunResult result;
  if (options.trace) {
    const Half untraced = MeasureHalf(*stack, s, options.seconds / 2,
                                      options.seed + 1, time_setup, result);
    Tracer::Global().ResetCounters();
    MemPeak mem;
    const OnlineDataset::StatsSnapshot online_before =
        stack->dataset().stats();
    const EvictionManagerSnapshot mem_before =
        EvictionManager::Global().snapshot();
    const ServerStatsSnapshot server_before = stack->server().stats();
    const double cpu_before = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    Tracer::Global().SetAggregate(true);
    const Half traced = MeasureHalf(*stack, s, options.seconds / 2,
                                    options.seed + 2, time_setup, result);
    Tracer::Global().SetAggregate(false);
    const double wall_s = SecondsBetween(start, Clock::now());
    const double cpu_s = ProcessCpuSeconds() - cpu_before;
    mem.Sample();
    AddTracerMetrics(result, 1.0);
    const OnlineDataset::StatsSnapshot online = stack->dataset().stats();
    result.per_layer["online.advances"] =
        static_cast<double>(online.advances - online_before.advances);
    result.per_layer["online.epochs_invalidated"] = static_cast<double>(
        online.epochs_invalidated - online_before.epochs_invalidated);
    result.per_layer["online.stale_serves"] =
        static_cast<double>(online.stale_serves - online_before.stale_serves);
    result.per_layer["online.reindex_busy_s"] =
        Tracer::Global().Sum("detect.LOF").busy_s;
    result.per_layer["online.ingest_rtt_p50_ms"] =
        traced.traffic.ingest_rtt.Quantile(0.50);
    result.per_layer["online.ingest_p99_ms"] =
        traced.traffic.ingest.Quantile(0.99);
    result.per_layer["online.stale_fraction"] =
        traced.traffic.explains > 0
            ? static_cast<double>(traced.traffic.stale) /
                  static_cast<double>(traced.traffic.explains)
            : 0.0;
    result.per_layer["mem.reclaim_passes"] = static_cast<double>(
        EvictionManager::Global().snapshot().reclaim_passes -
        mem_before.reclaim_passes);
    result.per_layer["mem.used_bytes_peak"] = static_cast<double>(mem.peak());
    result.per_layer["common.pool_util"] =
        cpu_s / (wall_s * static_cast<double>(s.pool_threads));
    ClientStatsSnapshot client = traced.traffic.client;
    client.Merge(traced.grid_client);
    AddNetMetrics(result, client,
                  stack->server().stats().busy_rejections -
                      server_before.busy_rejections);
    result.per_layer["loadgen.late_ms_p99"] =
        std::max(traced.traffic.late.Quantile(0.99),
                 traced.traffic.ingest_late.Quantile(0.99));
    AddTracedHalf(result, untraced.e2e, traced.e2e);
  } else {
    const Half half =
        MeasureHalf(*stack, s, options.seconds, options.seed + 1, time_setup,
                    result);
    result.end_to_end = half.e2e.end_to_end;
  }
  result.end_to_end["setup_s"] = Median(setup_s);
  result.end_to_end["peak_rss_mb"] = PeakRssMb();
  return result;
}

}  // namespace perfbench
