#ifndef SUBEX_NET_REQUEST_ROUTER_H_
#define SUBEX_NET_REQUEST_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "explain/point_explainer.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "online/online_dataset.h"
#include "serve/scoring_service.h"

namespace subex {

/// The `kStats` sections that belong to the transport serving the router.
struct ServerStatsSections {
  std::uint64_t uptime_seconds = 0;
  std::string server = "{}";  ///< The server's own counters.
  std::string slow_requests =
      "{\"threshold_ms\":0,\"captured\":0,\"recent\":[]}";
};

/// What the explanation server answers, without the transport: a pure
/// function from one request (header + body bytes) to its reply payload.
/// It holds the registries of scoring services, explainers and online
/// datasets and one typed handler per request type. It opens no socket and
/// starts no thread; `ExplainServer` calls `Route` from its pool workers.
///
/// Register everything before the first `Route`. After that `Route` may be
/// called from any number of threads at once: the registries are read-only,
/// `ScoringService` and `OnlineDataset` are concurrent and explainers are
/// stateless.
class RequestRouter {
 public:
  using ServerStats = std::function<ServerStatsSections()>;

  /// `server_stats` supplies the transport's `kStats` sections; without it
  /// they read as zeros.
  explicit RequestRouter(ServerStats server_stats = nullptr);

  /// Exposes `service` under its detector name. Must outlive the router.
  void RegisterService(ScoringService& service);
  /// Exposes `explainer` under `name`. Must outlive the router.
  void RegisterExplainer(const std::string& name,
                         const PointExplainer& explainer);
  /// Exposes `dataset` under its name. Must outlive the router.
  void RegisterOnlineDataset(OnlineDataset& dataset);

  /// The reply payload to the request `header` + `body`: the request's
  /// result, or `kError` with a message when the type is not a request,
  /// the body does not decode, a handler rejects it or throws.
  std::vector<std::uint8_t> Route(const MessageHeader& header,
                                  const std::uint8_t* body,
                                  std::size_t size) const;

 private:
  /// Decode, handle, encode: the one step every request type shares.
  template <typename Request>
  std::vector<std::uint8_t> Serve(std::uint64_t request_id,
                                  WireReader& reader, Request& request) const;

  // The handlers: each fills `reply` and returns "", or returns the error
  // text of the reply.
  std::string Handle(const ScoreRequest& request, ScoreResult* reply) const;
  std::string Handle(const ExplainRequest& request,
                     ExplainResult* reply) const;
  std::string Handle(const StatsRequest& request, TextResult* reply) const;
  std::string Handle(const TraceDumpRequest& request, TextResult* reply) const;
  std::string Handle(const IngestRequest& request, IngestResult* reply) const;
  std::string Handle(const OnlineScoreRequest& request,
                     OnlineScoreResult* reply) const;
  std::string Handle(const OnlineExplainRequest& request,
                     OnlineExplainResult* reply) const;
  std::string Handle(const ProfDumpRequest& request, TextResult* reply) const;

  ServerStats server_stats_;
  std::unordered_map<std::string, ScoringService*> services_;
  std::unordered_map<std::string, const PointExplainer*> explainers_;
  std::unordered_map<std::string, OnlineDataset*> online_;
  Histogram* explain_search_histogram_;  ///< explain.search
};

}  // namespace subex

#endif  // SUBEX_NET_REQUEST_ROUTER_H_
