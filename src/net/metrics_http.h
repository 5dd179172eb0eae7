#ifndef SUBEX_NET_METRICS_HTTP_H_
#define SUBEX_NET_METRICS_HTTP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>

#include "net/socket.h"

namespace subex {

/// A request header longer than this closes the connection unanswered —
/// `GET /metrics` fits in a fraction of it, anything bigger is not a
/// scraper.
inline constexpr std::size_t kMaxMetricsRequestBytes = 8192;

/// Budget for a connected client to deliver its request header (and for
/// the response to drain). A silent client is dropped when it runs out, so
/// it can delay `Stop` by at most this much.
inline constexpr int kMetricsRecvTimeoutMs = 1000;

#ifndef SUBEX_OBS_DISABLED

/// The process's `GET /metrics` listener: one background thread, one
/// connection at a time, `Connection: close` per scrape — exactly enough
/// for a Prometheus scraper or a curl mid-run. `GET /metrics` serves the
/// global `MetricsRegistry` via `RenderPrometheusText`; other `GET` paths
/// are 404 and other methods 405. `ExplainServer` owns one when its
/// `metrics_port >= 0`; bench binaries and tools start their own. Under
/// SUBEX_OBS_DISABLED the stub's `Start` fails.
class MetricsHttpServer {
 public:
  /// `host` is the IPv4 bind address. `before_render`, when set, runs on
  /// the listener thread before each scrape is rendered (e.g. to refresh a
  /// gauge that is derived rather than recorded).
  explicit MetricsHttpServer(std::string host = "127.0.0.1",
                             std::function<void()> before_render = {})
      : host_(std::move(host)), before_render_(std::move(before_render)) {}
  ~MetricsHttpServer();
  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Binds `host:port` (0 picks a free port; see `port()`) and spawns the
  /// accept thread. False + `*error` when the bind fails.
  bool Start(std::uint16_t port, std::string* error = nullptr);
  /// Joins the thread; returns within `kMetricsRecvTimeoutMs` plus one
  /// accept poll even while a client holds its connection open. Idempotent.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (after a successful `Start`).
  std::uint16_t port() const { return port_; }
  /// Scrapes served so far.
  std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  /// Reads one request header from `fd` and answers it.
  void Serve(int fd);

  std::string host_;
  std::function<void()> before_render_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::thread thread_;
};

#else  // SUBEX_OBS_DISABLED

class MetricsHttpServer {
 public:
  explicit MetricsHttpServer(const std::string& = "127.0.0.1",
                             const std::function<void()>& = {}) {}
  bool Start(std::uint16_t, std::string* error = nullptr) {
    if (error != nullptr) *error = "observability compiled out";
    return false;
  }
  void Stop() {}
  bool running() const { return false; }
  std::uint16_t port() const { return 0; }
  std::uint64_t requests() const { return 0; }
};

#endif  // SUBEX_OBS_DISABLED

}  // namespace subex

#endif  // SUBEX_NET_METRICS_HTTP_H_
