// Tests for the GET /metrics listener (src/net/metrics_http): the
// Prometheus scrape, 404/405 answers, request headers split across writes
// or over the size cap, and that a client which connects and sends nothing
// cannot wedge Stop().

#include "net/metrics_http.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "obs/registry.h"
#include "prof/perf_counters.h"

namespace subex {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

#ifndef SUBEX_OBS_DISABLED

/// Sends `parts` to 127.0.0.1:`port` as separate writes, `gap` apart, and
/// returns everything the server sends back before it closes ("" on
/// connect failure; whatever arrived before a reset otherwise).
std::string Exchange(std::uint16_t port, const std::vector<std::string>& parts,
                     milliseconds gap = milliseconds(0)) {
  std::string error;
  Socket sock = ConnectTcp("127.0.0.1", port, 2000, &error);
  if (!sock.valid()) return "";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) std::this_thread::sleep_for(gap);
    if (!SendAll(sock.fd(),
                 reinterpret_cast<const std::uint8_t*>(parts[i].data()),
                 parts[i].size(), 2000, &error)) {
      break;  // The server may close early on a bad request.
    }
  }
  std::string response;
  std::uint8_t buf[4096];
  std::size_t received = 0;
  while (RecvSome(sock.fd(), buf, sizeof(buf), 3000, &received, &error) &&
         received > 0) {
    response.append(reinterpret_cast<const char*>(buf), received);
  }
  return response;
}

std::string HttpGet(std::uint16_t port, const std::string& path) {
  return Exchange(port, {"GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n"});
}

TEST(MetricsHttpServerTest, ServesPrometheusTextAndCountsScrapes) {
  RegisterProfProcessMetrics();  // Guarantees at least the prof gauges.
  MetricsHttpServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;
  ASSERT_NE(server.port(), 0);
  EXPECT_TRUE(server.running());

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("subex_prof_perf_available"), std::string::npos);

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  // requests() counts served scrapes only, not 404s.
  EXPECT_EQ(server.requests(), 1u);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // Idempotent.
}

TEST(MetricsHttpServerTest, BeforeRenderRunsAheadOfEachScrape) {
  Gauge& gauge = MetricsRegistry::Global().GetGauge("test.before_render");
  int calls = 0;
  MetricsHttpServer server("127.0.0.1", [&] { gauge.Set(++calls); });
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;
  HttpGet(server.port(), "/metrics");
  const std::string second = HttpGet(server.port(), "/metrics");
  EXPECT_NE(second.find("subex_test_before_render 2"), std::string::npos)
      << second;
  HttpGet(server.port(), "/nope");  // Not a scrape: no render.
  server.Stop();
  EXPECT_EQ(calls, 2);
}

TEST(MetricsHttpServerTest, RejectsAnInvalidBindHost) {
  MetricsHttpServer server("not-an-address");
  std::string error;
  EXPECT_FALSE(server.Start(0, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(server.running());
}

TEST(MetricsHttpServerTest, RequestSplitAcrossWritesGets200) {
  MetricsHttpServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;
  const std::string response =
      Exchange(server.port(), {"GET /met", "rics HTTP/1.1\r\nHost: x\r\n", "\r\n"},
               milliseconds(50));
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
}

TEST(MetricsHttpServerTest, NonGetMethodGets405) {
  MetricsHttpServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;
  const std::string response = Exchange(
      server.port(), {"POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n"});
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos) << response;
  EXPECT_EQ(server.requests(), 0u);
}

TEST(MetricsHttpServerTest, OversizedHeaderClosesWithout200) {
  MetricsHttpServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;
  const std::string padding(kMaxMetricsRequestBytes + 1024, 'a');
  const std::string response = Exchange(
      server.port(),
      {"GET /metrics HTTP/1.1\r\nX-Pad: " + padding + "\r\n\r\n"});
  EXPECT_EQ(response.find("200 OK"), std::string::npos) << response;
  EXPECT_EQ(server.requests(), 0u);
  // The listener is still healthy afterwards.
  EXPECT_NE(HttpGet(server.port(), "/metrics").find("200 OK"),
            std::string::npos);
}

TEST(MetricsHttpServerTest, SilentClientDoesNotWedgeStop) {
  MetricsHttpServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;
  Socket idle = ConnectTcp("127.0.0.1", server.port(), 2000, &error);
  ASSERT_TRUE(idle.valid()) << error;
  // Let the listener accept the connection and wait on its request.
  std::this_thread::sleep_for(milliseconds(200));

  // A listener that waits on the idle client forever would make Stop()
  // hang; the watchdog shuts the client down at the bound instead, so
  // such a listener fails the timing check rather than the whole run.
  const milliseconds bound(kMetricsRecvTimeoutMs + 1000);
  std::atomic<bool> stopped{false};
  std::thread watchdog([&] {
    const auto deadline = steady_clock::now() + bound;
    while (!stopped.load() && steady_clock::now() < deadline) {
      std::this_thread::sleep_for(milliseconds(10));
    }
    ::shutdown(idle.fd(), SHUT_RDWR);
  });
  const auto start = steady_clock::now();
  server.Stop();
  const auto elapsed = steady_clock::now() - start;
  stopped.store(true);
  watchdog.join();
  EXPECT_LT(elapsed, bound);
  EXPECT_FALSE(server.running());
}

#else  // SUBEX_OBS_DISABLED

TEST(MetricsHttpServerTest, StubRefusesToStart) {
  MetricsHttpServer server;
  std::string error;
  EXPECT_FALSE(server.Start(0, &error));
  EXPECT_EQ(error, "observability compiled out");
  EXPECT_FALSE(server.running());
  server.Stop();
}

#endif  // SUBEX_OBS_DISABLED

}  // namespace
}  // namespace subex
