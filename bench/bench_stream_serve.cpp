// Loopback load generator for the online serving path: starts an
// ExplainServer with a registered OnlineDataset (incremental LODA + LOF
// re-index over a sliding window), drives it with an open-loop ingest
// thread replaying a drifting stream at --rate rows/s, and hammers the
// kOnlineScore/kOnlineExplain endpoints from N client threads while the
// window advances underneath them.
//
// The quantity of interest is explanation **freshness** versus throughput:
// every kOnlineExplain reply carries the epoch it was computed against and
// the epoch current when it was sent, so the bench reports the staleness
// distribution (epoch lag), the stale-serve fraction, and the drift events
// the ingest provoked — alongside the usual latency percentiles.
//
// Usage: bench_stream_serve [--clients N] [--duration-ms N] [--rate X]
//                           [--threads N] [--seed N] [--json PATH]
//                           [--metrics-port N] [--drift-threshold X]
//                           [--drift-p X] [--fault-spec SPEC] [--fault-seed N]
//                           [--restarts N] [--deadline-ms N] [--wal-dir DIR]
//
// --metrics-port exposes GET /metrics (Prometheus exposition) for the run's
// duration, so a soak harness can scrape the online.* gauges mid-flight.
// --drift-threshold/--drift-p tune the KS drift gate: consecutive epochs
// share most of their window, so the default conservative threshold rarely
// fires on gradual subspace drift — soak jobs lower it to assert the alert
// path end to end.
//
// Chaos mode (any of --fault-spec/--restarts set) turns the bench into a
// soak: --fault-spec arms the src/fault registry (see FaultRegistry's spec
// grammar) for the run's chaos window, --restarts N stops and restarts the
// server N times on the same port mid-run (clients reconnect), and
// --deadline-ms stamps every client request with a wire deadline. After
// the chaos window the faults are disarmed and a clean verification pass
// must succeed end to end — the run proves the system degrades under
// injected faults and fully recovers when they clear. Transport errors and
// deadline rejections are expected and counted in chaos mode; server
// errors and a failed verification pass still exit nonzero.
//
// Without chaos flags, exits nonzero if any request failed with a
// transport or server error (busy rejections absorbed by client backoff
// are not errors).

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace {

using namespace subex;
using Clock = std::chrono::steady_clock;

struct StreamConfig {
  int clients = 3;
  int duration_ms = 2000;
  double rate = 4000.0;  // Offered ingest rows/s (open loop).
  int pool_threads = 0;  // 0 = hardware concurrency.
  std::uint64_t seed = 4242;
  std::string json_path;
  int metrics_port = -1;          // -1 = no metrics endpoint.
  double drift_threshold = -1.0;  // < 0 = DriftMonitorOptions default.
  double drift_p = -1.0;
  std::string fault_spec;         // Armed for the chaos window.
  std::uint64_t fault_seed = 1;
  int restarts = 0;               // Mid-run server stop/start cycles.
  int deadline_ms = 0;            // Wire deadline on every request.
  std::string wal_dir;            // Crash-safe ingest for the dataset.

  bool chaos() const { return !fault_spec.empty() || restarts > 0; }
};

/// Pre-materialized drifting-stream rows served as row-major batches; the
/// generator is chunked, the wire wants arbitrary row counts.
class StreamFeed {
 public:
  explicit StreamFeed(DriftingStreamGenerator& stream) : stream_(stream) {}

  std::vector<double> NextRows(std::size_t n) {
    const std::size_t width = static_cast<std::size_t>(stream_.num_features());
    std::vector<double> values;
    values.reserve(n * width);
    while (values.size() < n * width) {
      if (cursor_ == buffered_.size()) {
        buffered_.clear();
        cursor_ = 0;
        const StreamChunk chunk = stream_.Next();
        for (std::size_t r = 0; r < chunk.points.rows(); ++r) {
          for (std::size_t f = 0; f < chunk.points.cols(); ++f) {
            buffered_.push_back(chunk.points(r, f));
          }
        }
      }
      values.push_back(buffered_[cursor_++]);
    }
    return values;
  }

 private:
  DriftingStreamGenerator& stream_;
  std::vector<double> buffered_;
  std::size_t cursor_ = 0;
};

/// Re-establishes a dead connection, retrying through server downtime
/// (restarts leave a window with nothing listening). Returns false only
/// when the run deadline expires first.
bool ReconnectUntil(ExplainClient& client, std::uint16_t port,
                    Clock::time_point deadline, std::uint64_t* reconnects) {
  std::string error;
  while (Clock::now() < deadline) {
    if (client.Connect("127.0.0.1", port, &error)) {
      if (reconnects != nullptr) ++*reconnects;
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

struct IngestOutcome {
  std::uint64_t rows = 0;
  std::uint64_t batches = 0;
  std::uint64_t errors = 0;
  std::uint64_t transport_errors = 0;  // Chaos casualties; reconnected.
  std::uint64_t deadline_expired = 0;  // Server answered kDeadlineExceeded.
  std::uint64_t reconnects = 0;
  std::uint64_t advances = 0;
  std::uint64_t behind_batches = 0;  // Deadlines missed: server too slow.
  std::uint64_t final_epoch = 0;
};

/// Open-loop ingest: sends fixed batches on a fixed cadence regardless of
/// response latency, so a slow server accumulates backlog instead of
/// silently lowering the offered rate (behind_batches counts the misses).
IngestOutcome RunIngest(const StreamConfig& config, std::uint16_t port,
                        StreamFeed& feed, std::size_t num_features,
                        Clock::time_point deadline) {
  IngestOutcome out;
  ExplainClientOptions client_options;
  client_options.deadline_ms =
      static_cast<std::uint32_t>(config.deadline_ms);
  ExplainClient client(client_options);
  std::string error;
  if (!client.Connect("127.0.0.1", port, &error)) {
    std::printf("ingest: connect failed: %s\n", error.c_str());
    out.errors = 1;
    return out;
  }
  constexpr std::size_t kBatchRows = 16;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(static_cast<double>(kBatchRows) /
                                    config.rate));
  auto next = Clock::now();
  while (Clock::now() < deadline) {
    next += interval;
    std::vector<double> values = feed.NextRows(kBatchRows);
    (void)num_features;
    const ExplainClient::IngestReply reply =
        client.Ingest("stream", kBatchRows, std::move(values));
    ++out.batches;
    switch (reply.status) {
      case ClientStatus::kOk:
        out.rows += reply.result.accepted;
        out.advances += reply.result.advances;
        out.final_epoch = reply.result.window_epoch;
        break;
      case ClientStatus::kDeadlineExceeded:
        ++out.deadline_expired;
        break;
      case ClientStatus::kTransportError:
      case ClientStatus::kCircuitOpen:
        ++out.transport_errors;
        if (config.chaos()) {
          // Expected during a restart window: re-establish and continue.
          if (!ReconnectUntil(client, port, deadline, &out.reconnects)) {
            return out;
          }
        } else {
          ++out.errors;
        }
        break;
      default:
        if (config.chaos() && reply.status == ClientStatus::kBusy) break;
        ++out.errors;
        break;
    }
    const auto now = Clock::now();
    if (now < next) {
      std::this_thread::sleep_until(next);
    } else {
      ++out.behind_batches;
    }
  }
  return out;
}

struct ExplainOutcome {
  std::vector<double> score_ms;
  std::vector<double> explain_ms;
  std::uint64_t ok = 0;
  std::uint64_t busy_gave_up = 0;
  std::uint64_t errors = 0;
  std::uint64_t transport_errors = 0;  // Chaos casualties; reconnected.
  std::uint64_t deadline_expired = 0;  // Server answered kDeadlineExceeded.
  std::uint64_t reconnects = 0;
  std::uint64_t explains = 0;
  std::uint64_t stale_replies = 0;   // computed_epoch < current_epoch.
  std::uint64_t lag_sum = 0;         // Sum of epoch lags across explains.
  std::uint64_t lag_max = 0;
  ClientStatsSnapshot stats;
};

/// One client's life until the deadline: every 4th request explains a
/// window point (Beam over the incremental LODA, pinned to its epoch), the
/// rest score random 2d subspaces alternating LODA (histogram fast path)
/// and LOF (epoch-tagged re-index) — both served from the per-epoch cache
/// when clients collide.
ExplainOutcome RunExplainClient(const StreamConfig& config,
                                std::uint16_t port, int client_index,
                                int num_features, std::size_t safe_points,
                                Clock::time_point deadline) {
  ExplainOutcome out;
  ExplainClientOptions client_options;
  client_options.deadline_ms =
      static_cast<std::uint32_t>(config.deadline_ms);
  ExplainClient client(client_options);
  std::string error;
  if (!client.Connect("127.0.0.1", port, &error)) {
    std::printf("client %d: connect failed: %s\n", client_index,
                error.c_str());
    out.errors = 1;
    return out;
  }
  Rng rng(config.seed + static_cast<std::uint64_t>(client_index) * 7919);
  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    const auto start = Clock::now();
    ClientStatus status;
    bool was_explain = false;
    if (i % 4 == 3) {
      was_explain = true;
      const int point =
          rng.UniformInt(0, static_cast<int>(safe_points) - 1);
      const ExplainClient::OnlineExplainReply reply = client.OnlineExplain(
          "stream", "LODA", "Beam", point, /*target_dim=*/2,
          /*max_results=*/5);
      status = reply.status;
      if (reply.ok()) {
        ++out.explains;
        const std::uint64_t lag = reply.current_epoch - reply.computed_epoch;
        out.lag_sum += lag;
        out.lag_max = std::max(out.lag_max, lag);
        if (reply.stale()) ++out.stale_replies;
      }
    } else {
      const int a = rng.UniformInt(0, num_features - 1);
      int b = rng.UniformInt(0, num_features - 2);
      if (b >= a) ++b;
      const ExplainClient::OnlineScoreReply reply = client.OnlineScore(
          "stream", i % 2 == 0 ? "LODA" : "LOF", Subspace({a, b}));
      status = reply.status;
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - start)
                          .count();
    switch (status) {
      case ClientStatus::kOk:
        ++out.ok;
        (was_explain ? out.explain_ms : out.score_ms).push_back(ms);
        break;
      case ClientStatus::kBusy:
        ++out.busy_gave_up;
        break;
      case ClientStatus::kDeadlineExceeded:
        ++out.deadline_expired;
        break;
      case ClientStatus::kTransportError:
      case ClientStatus::kCircuitOpen:
        ++out.transport_errors;
        if (config.chaos()) {
          if (!ReconnectUntil(client, port, deadline, &out.reconnects)) {
            out.stats = client.stats();
            return out;
          }
        } else {
          ++out.errors;
        }
        break;
      default:
        ++out.errors;
        break;
    }
  }
  out.stats = client.stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  StreamConfig config;
  bench::FlagParser flags("Stream serve: online ingest + explain under drift.");
  flags
      .Number("--clients", &config.clients, 1, bench::kMaxClients,
              "explain client threads")
      .Number("--duration-ms", &config.duration_ms, 1, 86400000, "run length")
      .Number("--rate", &config.rate, 1, 1e7, "offered ingest rows per second")
      .Number("--threads", &config.pool_threads, 0, bench::kMaxThreads,
              "server pool size; 0 = one thread per core")
      .Number("--seed", &config.seed, 0, UINT64_MAX, "stream seed")
      .String("--json PATH", &config.json_path, "write the report as JSON")
      .Number("--metrics-port", &config.metrics_port, 0, 65535,
              "serve GET /metrics; 0 = any free port")
      .Number("--drift-threshold", &config.drift_threshold, 0, 1,
              "KS statistic that flags drift")
      .Number("--drift-p", &config.drift_p, 0, 1,
              "largest KS p-value that flags drift")
      .String("--fault-spec SPEC", &config.fault_spec,
              "faults to inject (FaultRegistry spec)")
      .Number("--fault-seed", &config.fault_seed, 0, UINT64_MAX, "fault seed")
      .Number("--restarts", &config.restarts, 0, 1000, "mid-run restarts")
      .Number("--deadline-ms", &config.deadline_ms, 0, 3600000,
              "wire deadline per request; 0 = none")
      .String("--wal-dir DIR", &config.wal_dir, "journal ingest to a WAL")
      .Parse(argc, argv);
  std::vector<FaultSpecEntry> faults;
  std::string spec_error;
  if (!ParseFaultSpec(config.fault_spec, &faults, &spec_error)) {
    flags.Fail("bad --fault-spec: " + spec_error);
  }

  std::printf("== stream serve: online ingest + explain under drift ==\n");
  std::printf(
      "%d explain clients for %d ms, ingest %.0f rows/s (open loop), "
      "pool threads %d%s\n",
      config.clients, config.duration_ms, config.rate, config.pool_threads,
      config.pool_threads == 0 ? " (auto)" : "");
  if (config.chaos()) {
    std::printf(
        "chaos: fault spec \"%s\" (seed %llu), %d restarts, deadline %d ms, "
        "wal dir \"%s\"\n",
        config.fault_spec.c_str(),
        static_cast<unsigned long long>(config.fault_seed), config.restarts,
        config.deadline_ms, config.wal_dir.c_str());
  }
  std::printf("\n");

  // A 5-feature drifting subspace-outlier stream; drift every 2 chunks so
  // a few-second run crosses several concepts and the KS monitor has
  // something to flag.
  DriftingStreamConfig stream_config;
  stream_config.chunk_size = 128;
  stream_config.outliers_per_chunk = 4;
  stream_config.drift_every_chunks = 2;
  stream_config.subspace_dims = {2, 3};
  stream_config.seed = config.seed;
  DriftingStreamGenerator stream(stream_config);
  const int num_features = stream.num_features();
  StreamFeed feed(stream);

  OnlineDatasetOptions dataset_options;
  dataset_options.name = "stream";
  dataset_options.window_capacity = 256;
  dataset_options.advance_every = 32;
  dataset_options.min_score_window = 32;
  dataset_options.drift.min_window = 64;
  if (config.drift_threshold >= 0.0) {
    dataset_options.drift.ks_threshold = config.drift_threshold;
  }
  if (config.drift_p >= 0.0) {
    dataset_options.drift.max_p_value = config.drift_p;
  }
  dataset_options.wal_dir = config.wal_dir;
  // A missing directory silently degrades the WAL — create it so the
  // chaos soak journals (and recovers across --restarts) for real.
  if (!config.wal_dir.empty()) ::mkdir(config.wal_dir.c_str(), 0755);
  OnlineDataset dataset(dataset_options,
                        static_cast<std::size_t>(num_features));
  Loda::Options loda_options;
  loda_options.num_projections = 24;
  dataset.AddLoda("LODA", loda_options);
  Lof lof(10);
  dataset.AddReindexDetector("LOF", lof);
  Beam beam;
  if (!config.wal_dir.empty()) {
    const OnlineDataset::RecoveryResult recovery = dataset.RecoverFromWal();
    if (!recovery.ok()) {
      std::printf("wal recovery failed: %s\n", recovery.error.c_str());
      return 1;
    }
    if (recovery.recovered) {
      std::printf("wal recovery: resumed at epoch %llu (%llu rows replayed)\n",
                  static_cast<unsigned long long>(dataset.epoch()),
                  static_cast<unsigned long long>(recovery.replayed_rows));
    }
  }

  ThreadPool pool(static_cast<std::size_t>(config.pool_threads));
  ExplainServerOptions server_options;
  if (config.metrics_port >= 0) server_options.metrics_port = config.metrics_port;
  // Restarts rebuild the server object; keeping it behind a pointer and
  // re-binding the same port makes a restart invisible to clients except
  // for the reconnect.
  auto start_server = [&](std::string* start_error) {
    auto server = std::make_unique<ExplainServer>(server_options, &pool);
    server->RegisterOnlineDataset(dataset);
    server->RegisterExplainer("Beam", beam);
    if (!server->Start(start_error)) server.reset();
    return server;
  };
  std::string error;
  std::unique_ptr<ExplainServer> server = start_server(&error);
  if (server == nullptr) {
    std::printf("server start failed: %s\n", error.c_str());
    return 1;
  }
  // Pin the kernel-chosen ports so every restart lands on the same address.
  server_options.port = server->port();
  if (config.metrics_port == 0) {
    server_options.metrics_port = server->metrics_port();
  }

  // Warm the window past min_score_window before the clients start, so
  // every request they send is answerable (no warmup error noise).
  {
    ExplainClient warmup;
    if (!warmup.Connect("127.0.0.1", server->port(), &error)) {
      std::printf("warmup connect failed: %s\n", error.c_str());
      return 1;
    }
    const ExplainClient::IngestReply reply =
        warmup.Ingest("stream", 64, feed.NextRows(64));
    if (!reply.ok()) {
      std::printf("warmup ingest failed: %s\n", reply.error.c_str());
      return 1;
    }
  }
  // The window only grows from here, so indices below the warmed size are
  // always valid explain targets.
  const std::size_t safe_points = dataset.stats().window_size;
  const std::uint16_t port = server->port();

  // Arm the fault registry only for the chaos window: the warmup above and
  // the verification pass below both run clean.
  if (!faults.empty()) {
    FaultRegistry::Global().SetSeed(config.fault_seed);
    for (const FaultSpecEntry& fault : faults) {
      FaultRegistry::Global().Arm(fault.point, fault.rule);
    }
  }

  const auto wall_start = Clock::now();
  const auto deadline =
      wall_start + std::chrono::milliseconds(config.duration_ms);
  IngestOutcome ingest;
  std::thread ingest_thread([&] {
    ingest = RunIngest(config, port, feed,
                       static_cast<std::size_t>(num_features), deadline);
  });
  std::vector<ExplainOutcome> outcomes(
      static_cast<std::size_t>(config.clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(config.clients));
  for (int c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      outcomes[static_cast<std::size_t>(c)] = RunExplainClient(
          config, port, c, num_features, safe_points, deadline);
    });
  }

  // The restart controller: kill and re-bind the server at evenly spaced
  // points of the chaos window while clients hammer it.
  std::uint64_t restarts_done = 0;
  std::uint64_t restart_failures = 0;
  if (config.restarts > 0) {
    const auto segment =
        std::chrono::milliseconds(config.duration_ms) / (config.restarts + 1);
    for (int r = 1; r <= config.restarts; ++r) {
      std::this_thread::sleep_until(wall_start + r * segment);
      if (Clock::now() >= deadline) break;
      server->Stop();
      server.reset();
      // Re-bind can transiently fail while the old socket drains; retry
      // briefly rather than abandoning the soak.
      for (int attempt = 0; attempt < 50 && server == nullptr; ++attempt) {
        server = start_server(&error);
        if (server == nullptr) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
      if (server == nullptr) {
        std::printf("restart %d failed: %s\n", r, error.c_str());
        ++restart_failures;
        break;
      }
      ++restarts_done;
    }
  }

  for (std::thread& t : threads) t.join();
  ingest_thread.join();
  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  // End of the chaos window: disarm everything and prove full recovery
  // with a clean pass — fresh connection, ingest, scores, one explain,
  // zero tolerance for failure.
  const FaultStats fault_stats = FaultRegistry::Global().stats();
  FaultRegistry::Global().DisarmAll();  // Resets counters: snapshot first.
  bool verification_ok = server != nullptr;
  std::string verification_error =
      server == nullptr ? "server not running after restarts" : "";
  if (server != nullptr) {
    ExplainClient verifier;
    if (!verifier.Connect("127.0.0.1", port, &error)) {
      verification_ok = false;
      verification_error = "connect: " + error;
    } else {
      const ExplainClient::IngestReply ingest_reply =
          verifier.Ingest("stream", 16, feed.NextRows(16));
      if (!ingest_reply.ok()) {
        verification_ok = false;
        verification_error = "ingest: " + ingest_reply.error;
      }
      for (int i = 0; verification_ok && i < 10; ++i) {
        const ExplainClient::OnlineScoreReply reply = verifier.OnlineScore(
            "stream", i % 2 == 0 ? "LODA" : "LOF", Subspace({0, 1}));
        if (!reply.ok()) {
          verification_ok = false;
          verification_error = "score: " + reply.error;
        }
      }
      if (verification_ok) {
        const ExplainClient::OnlineExplainReply reply = verifier.OnlineExplain(
            "stream", "LODA", "Beam", 0, /*target_dim=*/2, /*max_results=*/5);
        if (!reply.ok()) {
          verification_ok = false;
          verification_error = "explain: " + reply.error;
        }
      }
    }
  }

  const ServerStatsSnapshot server_stats =
      server != nullptr ? server->stats() : ServerStatsSnapshot{};
  const OnlineDataset::StatsSnapshot online_stats = dataset.stats();
  if (server != nullptr) server->Stop();

  std::vector<double> score_ms, explain_ms;
  std::uint64_t ok = 0, busy_gave_up = 0, errors = ingest.errors;
  std::uint64_t transport_errors = ingest.transport_errors;
  std::uint64_t deadline_expired = ingest.deadline_expired;
  std::uint64_t reconnects = ingest.reconnects;
  std::uint64_t explains = 0, stale_replies = 0, lag_sum = 0, lag_max = 0;
  ClientStatsSnapshot client_stats;
  for (const ExplainOutcome& o : outcomes) {
    score_ms.insert(score_ms.end(), o.score_ms.begin(), o.score_ms.end());
    explain_ms.insert(explain_ms.end(), o.explain_ms.begin(),
                      o.explain_ms.end());
    ok += o.ok;
    busy_gave_up += o.busy_gave_up;
    errors += o.errors;
    transport_errors += o.transport_errors;
    deadline_expired += o.deadline_expired;
    reconnects += o.reconnects;
    explains += o.explains;
    stale_replies += o.stale_replies;
    lag_sum += o.lag_sum;
    lag_max = std::max(lag_max, o.lag_max);
    client_stats.Merge(o.stats);
  }
  const double throughput =
      wall_seconds > 0.0 ? static_cast<double>(ok) / wall_seconds : 0.0;
  const double ingest_rate_achieved =
      wall_seconds > 0.0 ? static_cast<double>(ingest.rows) / wall_seconds
                         : 0.0;
  const double stale_fraction =
      explains > 0
          ? static_cast<double>(stale_replies) / static_cast<double>(explains)
          : 0.0;
  const double lag_mean =
      explains > 0
          ? static_cast<double>(lag_sum) / static_cast<double>(explains)
          : 0.0;

  TextTable table;
  table.SetHeader({"metric", "value"});
  table.AddRow({"requests ok", std::to_string(ok)});
  table.AddRow({"throughput", FormatDouble(throughput) + " req/s"});
  table.AddRow({"ingest rows", std::to_string(ingest.rows)});
  table.AddRow(
      {"ingest rate achieved", FormatDouble(ingest_rate_achieved) + " rows/s"});
  table.AddRow({"ingest behind batches",
                std::to_string(ingest.behind_batches) + " / " +
                    std::to_string(ingest.batches)});
  table.AddRow({"window advances", std::to_string(online_stats.advances)});
  table.AddRow({"final epoch", std::to_string(online_stats.epoch)});
  table.AddRow({"score p50", FormatDouble(bench::Percentile(score_ms, 0.50)) +
                                 " ms"});
  table.AddRow({"score p99", FormatDouble(bench::Percentile(score_ms, 0.99)) +
                                 " ms"});
  table.AddRow({"explain p50",
                FormatDouble(bench::Percentile(explain_ms, 0.50)) + " ms"});
  table.AddRow({"explain p99",
                FormatDouble(bench::Percentile(explain_ms, 0.99)) + " ms"});
  table.AddRow({"explains", std::to_string(explains)});
  table.AddRow({"stale explains", std::to_string(stale_replies)});
  table.AddRow({"stale fraction", FormatDouble(stale_fraction)});
  table.AddRow({"epoch lag mean", FormatDouble(lag_mean)});
  table.AddRow({"epoch lag max", std::to_string(lag_max)});
  table.AddRow({"stale serves (server)",
                std::to_string(online_stats.stale_serves)});
  table.AddRow({"drift events", std::to_string(online_stats.drift_events)});
  table.AddRow({"cache entries / invalidated",
                std::to_string(online_stats.cache_entries) + " / " +
                    std::to_string(online_stats.epochs_invalidated)});
  table.AddRow({"busy gave up", std::to_string(busy_gave_up)});
  table.AddRow({"server errors", std::to_string(errors)});
  table.AddRow({"wall time", FormatSeconds(wall_seconds)});
  if (config.chaos() || config.deadline_ms > 0) {
    table.AddRow({"transport errors (chaos)",
                  std::to_string(transport_errors)});
    table.AddRow({"reconnects", std::to_string(reconnects)});
    table.AddRow({"deadline exceeded", std::to_string(deadline_expired)});
    table.AddRow({"faults injected", std::to_string(fault_stats.injected)});
    table.AddRow({"restarts done", std::to_string(restarts_done) + " / " +
                                       std::to_string(config.restarts)});
    table.AddRow({"verification",
                  verification_ok ? "ok" : "FAILED: " + verification_error});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("online stats: %s\n", online_stats.ToJson().c_str());
  std::printf("server stats: %s\n", server_stats.ToJson().c_str());
  std::printf("client stats: %s\n", client_stats.ToJson().c_str());
  if (config.chaos()) {
    std::printf("fault stats: %s\n", fault_stats.ToJson().c_str());
  }

  if (!config.json_path.empty()) {
    bench::JsonTimingReport report;
    report.SetMeta(
        JsonObject()
            .Add("bench", "stream_serve")
            .Add("clients", config.clients)
            .Add("duration_ms", config.duration_ms)
            .Add("offered_rate_rows_per_s", config.rate)
            .Add("pool_threads", config.pool_threads)
            .Add("seed", static_cast<std::uint64_t>(config.seed)));
    report.AddRow(
        JsonObject()
            .Add("requests_ok", ok)
            .Add("throughput_rps", throughput)
            .Add("ingest_rows", ingest.rows)
            .Add("ingest_rate_rows_per_s", ingest_rate_achieved)
            .Add("ingest_behind_batches", ingest.behind_batches)
            .Add("score_p50_ms", bench::Percentile(score_ms, 0.50))
            .Add("score_p99_ms", bench::Percentile(score_ms, 0.99))
            .Add("explain_p50_ms", bench::Percentile(explain_ms, 0.50))
            .Add("explain_p99_ms", bench::Percentile(explain_ms, 0.99))
            .Add("explains", explains)
            .Add("stale_explains", stale_replies)
            .Add("stale_fraction", stale_fraction)
            .Add("epoch_lag_mean", lag_mean)
            .Add("epoch_lag_max", lag_max)
            .Add("busy_gave_up", busy_gave_up)
            .Add("errors", errors)
            .Add("transport_errors", transport_errors)
            .Add("reconnects", reconnects)
            .Add("deadline_exceeded", deadline_expired)
            .Add("restarts_requested",
                 static_cast<std::uint64_t>(config.restarts))
            .Add("restarts_done", restarts_done)
            .Add("faults_injected", fault_stats.injected)
            .Add("verification_ok", verification_ok)
            .Add("wall_seconds", wall_seconds)
            .AddRaw("fault", fault_stats.ToJson())
            .AddRaw("online", online_stats.ToJson())
            .AddRaw("server", server_stats.ToJson())
            .AddRaw("client", client_stats.ToJson())
            .AddRaw("metrics", MetricsRegistry::Global().ToJson()));
    report.WriteTo(config.json_path);
  }
  if (!verification_ok) {
    std::printf("FAILED: post-chaos verification: %s\n",
                verification_error.c_str());
    return 1;
  }
  if (restart_failures > 0) return 1;
  if (!config.chaos() && transport_errors > 0) return 1;
  return errors == 0 ? 0 : 1;
}
