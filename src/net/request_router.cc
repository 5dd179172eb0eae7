#include "net/request_router.h"

#include <exception>
#include <utility>

#include "common/json.h"
#include "fault/fault.h"
#include "mem/eviction_manager.h"
#include "obs/build_info.h"
#include "obs/event_log.h"
#include "obs/registry.h"
#include "obs/span_collector.h"
#include "obs/trace.h"
#include "prof/sampling_profiler.h"

namespace subex {
namespace {

std::vector<std::uint8_t> ErrorReply(std::uint64_t request_id,
                                     std::string message) {
  return Encode(MessageType::kError, request_id,
                TextResult{std::move(message)});
}

/// Features must address columns of the dataset; an out-of-range id would
/// be undefined behavior deep inside a detector.
bool SubspaceInRange(const Subspace& subspace, std::size_t num_features) {
  for (const FeatureId f : subspace.features()) {
    if (f < 0 || static_cast<std::size_t>(f) >= num_features) return false;
  }
  return true;
}

/// Shared core of `kExplain` and `kOnlineExplain`: range-checks `point`
/// and `target_dim` against `data`, runs the search under an
/// `explain.search` span (it joins the request's trace via CurrentTrace(),
/// and the detector's scoring spans nest underneath), then truncates the
/// ranking to `max_results` (0 keeps all). Returns the error text of a
/// failed check, "" on success.
std::string RunExplain(const PointExplainer& explainer, const Dataset& data,
                       const Detector& detector, int point, int target_dim,
                       std::uint32_t max_results, Histogram* search_histogram,
                       RankedSubspaces* ranking) {
  if (point < 0 || static_cast<std::size_t>(point) >= data.num_points()) {
    return "point index out of range";
  }
  if (target_dim < 2 ||
      static_cast<std::size_t>(target_dim) > data.num_features()) {
    return "target_dim out of range";
  }
  {
    TraceSpan search(search_histogram, nullptr, "explain.search");
    *ranking = explainer.Explain(data, detector, point, target_dim);
  }
  if (max_results > 0 && ranking->size() > max_results) {
    ranking->subspaces.resize(max_results);
    ranking->scores.resize(max_results);
  }
  return "";
}

}  // namespace

RequestRouter::RequestRouter(ServerStats server_stats)
    : server_stats_(std::move(server_stats)),
      explain_search_histogram_(
          &MetricsRegistry::Global().GetHistogram("explain.search")) {}

void RequestRouter::RegisterService(ScoringService& service) {
  services_[service.detector_name()] = &service;
}

void RequestRouter::RegisterExplainer(const std::string& name,
                                      const PointExplainer& explainer) {
  explainers_[name] = &explainer;
}

void RequestRouter::RegisterOnlineDataset(OnlineDataset& dataset) {
  online_[dataset.name()] = &dataset;
}

template <typename Request>
std::vector<std::uint8_t> RequestRouter::Serve(std::uint64_t request_id,
                                               WireReader& reader,
                                               Request& request) const {
  if (!Decode(reader, &request)) {
    return ErrorReply(request_id, std::string("malformed ") +
                                      Request::kKind.name + " body");
  }
  typename Request::Reply reply;
  std::string error = Handle(request, &reply);
  if (!error.empty()) return ErrorReply(request_id, std::move(error));
  return Encode(Request::kKind.reply_type, request_id, reply);
}

std::vector<std::uint8_t> RequestRouter::Route(const MessageHeader& header,
                                               const std::uint8_t* body,
                                               std::size_t size) const {
  WireReader reader(body, size);
  std::vector<std::uint8_t> reply;
  try {
    if (!VisitRequest(header.type, [&](auto request) {
          reply = Serve(header.request_id, reader, request);
        })) {
      reply = ErrorReply(header.request_id, "malformed request header");
    }
  } catch (const std::exception& e) {
    reply = ErrorReply(header.request_id,
                       std::string("handler exception: ") + e.what());
  }
  return reply;
}

std::string RequestRouter::Handle(const ScoreRequest& request,
                                  ScoreResult* reply) const {
  const auto it = services_.find(request.detector);
  if (it == services_.end()) return "unknown detector: " + request.detector;
  ScoringService& service = *it->second;
  if (!SubspaceInRange(request.subspace, service.data().num_features())) {
    return "subspace feature out of range";
  }
  reply->scores = *service.Score(request.subspace);
  return "";
}

std::string RequestRouter::Handle(const ExplainRequest& request,
                                  ExplainResult* reply) const {
  const auto service_it = services_.find(request.detector);
  if (service_it == services_.end()) {
    return "unknown detector: " + request.detector;
  }
  const auto explainer_it = explainers_.find(request.explainer);
  if (explainer_it == explainers_.end()) {
    return "unknown explainer: " + request.explainer;
  }
  ScoringService& service = *service_it->second;
  // Scoring routes through the service, so concurrent explanations share
  // the cache and single-flight deduplication.
  const CachingDetector cached(service);
  return RunExplain(*explainer_it->second, service.data(), cached,
                    request.point, request.target_dim, request.max_results,
                    explain_search_histogram_, &reply->ranking);
}

std::string RequestRouter::Handle(const StatsRequest&,
                                  TextResult* reply) const {
  const ServerStatsSections server =
      server_stats_ ? server_stats_() : ServerStatsSections{};
  JsonObject services;
  for (const auto& [name, service] : services_) {
    services.AddRaw(name, service->stats().ToJson());
  }
  JsonObject online;
  for (const auto& [name, dataset] : online_) {
    online.AddRaw(name, dataset->stats().ToJson());
  }
#ifndef SUBEX_OBS_DISABLED
  const std::string events_json = EventLog::Global().ToJson();
#else
  const std::string events_json =
      "{\"emitted\":0,\"suppressed\":0,\"recent\":[]}";
#endif
  reply->text =
      JsonObject()
          .Add("uptime_seconds", server.uptime_seconds)
          .AddRaw("build_info", BuildInfoJson())
          .AddRaw("server", server.server)
          .AddRaw("services", services.Build())
          .AddRaw("online", online.Build())
          .AddRaw("metrics", MetricsRegistry::Global().ToJson())
          .AddRaw("mem", EvictionManager::Global().snapshot().ToJson())
          .AddRaw("events", events_json)
          .AddRaw("slow_requests", server.slow_requests)
          .AddRaw("fault", FaultRegistry::Global().stats().ToJson())
          .Build();
  return "";
}

std::string RequestRouter::Handle(const TraceDumpRequest& request,
                                  TextResult* reply) const {
#ifndef SUBEX_OBS_DISABLED
  SpanCollector& collector = SpanCollector::Global();
  reply->text = collector.ToChromeTraceJson();
  if (request.clear) collector.Clear();
#else
  (void)request;
  reply->text = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}";
#endif
  return "";
}

std::string RequestRouter::Handle(const ProfDumpRequest& request,
                                  TextResult* reply) const {
  // The SUBEX_OBS_DISABLED stubs make every branch a well-formed no-op
  // (start fails gracefully, dumps are empty), so this handler needs no
  // compile-time split.
  SamplingProfiler& profiler = SamplingProfiler::Global();
  switch (request.action) {
    case ProfAction::kStart: {
      SamplingProfilerOptions options;
      if (request.sample_hz != 0) {
        options.sample_hz = static_cast<int>(request.sample_hz);
      }
      std::string error;
      const bool started = profiler.Start(options, &error);
      JsonObject status;
      status.Add("running", profiler.running());
      status.Add("sample_hz", profiler.sample_hz());
      status.Add("supported", SamplingProfiler::SupportedOnThisSystem());
      if (!started) status.Add("error", error);
      reply->text = status.Build();
      break;
    }
    case ProfAction::kStop: {
      profiler.Stop();
      reply->text = JsonObject()
                        .Add("running", false)
                        .Add("samples", profiler.samples())
                        .Add("dropped", profiler.dropped())
                        .Build();
      break;
    }
    case ProfAction::kDump: {
      reply->text = profiler.ToCollapsedText();
      if (request.clear) profiler.Clear();
      break;
    }
  }
  return "";
}

std::string RequestRouter::Handle(const IngestRequest& request,
                                  IngestResult* reply) const {
  const auto it = online_.find(request.dataset);
  if (it == online_.end()) return "unknown online dataset: " + request.dataset;
  OnlineDataset& dataset = *it->second;
  if (request.num_rows == 0) return "empty ingest";
  const std::size_t width = request.values.size() / request.num_rows;
  if (width != dataset.num_features()) return "ingest width mismatch";
  Matrix rows(request.num_rows, width);
  for (std::uint32_t r = 0; r < request.num_rows; ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      rows(r, c) = request.values[static_cast<std::size_t>(r) * width + c];
    }
  }
  const OnlineDataset::IngestResult ingested = dataset.Append(rows);
  reply->accepted = static_cast<std::uint32_t>(ingested.accepted);
  reply->window_epoch = ingested.epoch;
  reply->window_size = ingested.window_size;
  reply->total_ingested = ingested.total_ingested;
  reply->advances = ingested.advances;
  return "";
}

std::string RequestRouter::Handle(const OnlineScoreRequest& request,
                                  OnlineScoreResult* reply) const {
  const auto it = online_.find(request.dataset);
  if (it == online_.end()) return "unknown online dataset: " + request.dataset;
  OnlineDataset& dataset = *it->second;
  if (!SubspaceInRange(request.subspace, dataset.num_features())) {
    return "subspace feature out of range";
  }
  OnlineDataset::ScoredEpoch scored;
  const OnlineDataset::Status status =
      dataset.Score(request.detector, request.subspace, &scored);
  if (status != OnlineDataset::Status::kOk) {
    return OnlineDataset::StatusMessage(status);
  }
  reply->epoch = scored.epoch;
  reply->scores = *scored.scores;
  return "";
}

std::string RequestRouter::Handle(const OnlineExplainRequest& request,
                                  OnlineExplainResult* reply) const {
  const auto it = online_.find(request.dataset);
  if (it == online_.end()) return "unknown online dataset: " + request.dataset;
  OnlineDataset& dataset = *it->second;
  if (!dataset.HasDetector(request.detector)) {
    return "unknown detector: " + request.detector;
  }
  const auto explainer_it = explainers_.find(request.explainer);
  if (explainer_it == explainers_.end()) {
    return "unknown explainer: " + request.explainer;
  }
  // Everything below works on this pinned epoch; even if ingest keeps the
  // window moving, the explanation is internally consistent for it.
  const OnlineDataset::EpochSnapshot snapshot = dataset.Snapshot();
  if (snapshot.data == nullptr ||
      snapshot.data->num_points() < dataset.options().min_score_window) {
    return OnlineDataset::StatusMessage(
        OnlineDataset::Status::kWindowTooSmall);
  }
  const PinnedEpochDetector pinned(dataset, snapshot, request.detector);
  std::string error = RunExplain(
      *explainer_it->second, *snapshot.data, pinned, request.point,
      request.target_dim, request.max_results, explain_search_histogram_,
      &reply->ranking);
  if (!error.empty()) return error;
  reply->computed_epoch = snapshot.epoch;
  reply->current_epoch = dataset.epoch();
  if (reply->computed_epoch < reply->current_epoch) {
    dataset.NoteStaleServe(reply->computed_epoch, reply->current_epoch);
  }
  return "";
}

}  // namespace subex
