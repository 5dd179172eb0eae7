#include "net/metrics_http.h"

#ifndef SUBEX_OBS_DISABLED

#include <poll.h>
#include <sys/socket.h>

#include <chrono>

#include "obs/prometheus.h"
#include "obs/registry.h"

namespace subex {

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

bool MetricsHttpServer::Start(std::uint16_t port, std::string* error) {
  if (running()) {
    if (error != nullptr) *error = "already running";
    return false;
  }
  listener_ = ListenTcp(host_, port, /*backlog=*/8, &port_, error);
  if (!listener_.valid()) return false;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void MetricsHttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // The accept loop polls with a timeout and every exchange is bounded by
  // kMetricsRecvTimeoutMs, so the loop notices `running_` soon.
  if (thread_.joinable()) thread_.join();
  listener_.Close();
}

void MetricsHttpServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listener_.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    Socket client(::accept(listener_.fd(), nullptr, nullptr));
    if (client.valid()) Serve(client.fd());
  }
}

void MetricsHttpServer::Serve(int fd) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kMetricsRecvTimeoutMs);
  std::string request;
  std::string error;
  // The header may arrive in any number of segments; read until its blank
  // line, the size cap, EOF or the deadline.
  while (request.find("\r\n\r\n") == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    std::uint8_t buf[1024];
    std::size_t received = 0;
    if (left.count() <= 0 ||
        !RecvSome(fd, buf, sizeof(buf), static_cast<int>(left.count()),
                  &received, &error) ||
        received == 0) {
      return;
    }
    request.append(reinterpret_cast<const char*>(buf), received);
    if (request.size() > kMaxMetricsRequestBytes) return;
  }

  std::string status = "404 Not Found";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body = "not found\n";
  if (request.rfind("GET /metrics", 0) == 0) {
    if (before_render_) before_render_();
    status = "200 OK";
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = RenderPrometheusText(MetricsRegistry::Global());
    requests_.fetch_add(1, std::memory_order_relaxed);
  } else if (request.rfind("GET ", 0) != 0) {
    status = "405 Method Not Allowed";
    body = "only GET is supported\n";
  }
  const std::string response =
      "HTTP/1.1 " + status + "\r\nContent-Type: " + content_type +
      "\r\nContent-Length: " + std::to_string(body.size()) +
      "\r\nConnection: close\r\n\r\n" + body;
  SendAll(fd, reinterpret_cast<const std::uint8_t*>(response.data()),
          response.size(), kMetricsRecvTimeoutMs, &error);
}

}  // namespace subex

#endif  // SUBEX_OBS_DISABLED
