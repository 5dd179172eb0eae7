#include "net/explain_server.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <utility>
#include <vector>

#include "common/json.h"
#include "fault/fault.h"
#include "obs/registry.h"
#include "obs/span_collector.h"
#include "obs/trace.h"
#include "prof/perf_counters.h"

namespace subex {

using Clock = std::chrono::steady_clock;

namespace {

std::uint64_t NsOf(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

std::uint64_t NsSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

}  // namespace

std::string ServerStatsSnapshot::ToJson() const {
  return JsonObject()
      .Add("connections_accepted", connections_accepted)
      .Add("connections_closed", connections_closed)
      .Add("requests_admitted", requests_admitted)
      .Add("responses_sent", responses_sent)
      .Add("busy_rejections", busy_rejections)
      .Add("protocol_errors", protocol_errors)
      .Add("timeouts", timeouts)
      .Add("deadline_expired_queue", deadline_expired_queue)
      .Add("deadline_expired_compute", deadline_expired_compute)
      .Build();
}

/// Per-connection state. The socket, decoder and activity clock belong to
/// the event-loop thread; the write queue is the hand-off point between
/// pool handlers (producers) and the loop (consumer), guarded by `mutex`.
struct ExplainServer::Connection {
  Connection(Socket s, std::size_t max_frame_bytes)
      : socket(std::move(s)),
        decoder(max_frame_bytes),
        last_progress(Clock::now()) {}

  Socket socket;
  FrameDecoder decoder;
  Clock::time_point last_progress;
  /// Admitted requests of this connection still computing.
  std::atomic<int> in_flight{0};

  /// One queued response frame plus the labels its `net.write` span (the
  /// enqueue-to-fully-sent interval) carries once flushed.
  struct WriteEntry {
    std::vector<std::uint8_t> frame;
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span_id = 0;
    std::uint64_t enqueued_ns = 0;
  };

  std::mutex mutex;
  std::deque<WriteEntry> write_queue;
  std::size_t write_offset = 0;  // Sent bytes of the front frame.
  bool close_after_flush = false;
  bool closed = false;
  /// Cleared `Trace` objects reused across this connection's requests —
  /// tracing stays off the allocator hot path. Guarded by `mutex`.
  std::vector<std::unique_ptr<Trace>> trace_pool;
};

ExplainServer::ExplainServer(const ExplainServerOptions& options,
                             ThreadPool* pool)
    : options_(options),
      pool_(pool),
      router_([this] { return StatsSections(); }),
      request_histogram_(
          &MetricsRegistry::Global().GetHistogram("serve.request")),
      queue_wait_histogram_(
          &MetricsRegistry::Global().GetHistogram("serve.queue_wait")),
      write_histogram_(&MetricsRegistry::Global().GetHistogram("net.write")),
      bytes_received_(
          &MetricsRegistry::Global().GetCounter("net.bytes_received")),
      bytes_sent_(&MetricsRegistry::Global().GetCounter("net.bytes_sent")),
      deadline_queue_counter_(&MetricsRegistry::Global().GetCounter(
          "serve.deadline_expired_queue")),
      deadline_compute_counter_(&MetricsRegistry::Global().GetCounter(
          "serve.deadline_expired_compute")),
      connections_gauge_(
          &MetricsRegistry::Global().GetGauge("serve.connections")),
      uptime_gauge_(
          &MetricsRegistry::Global().GetGauge("server.uptime_seconds")),
      metrics_http_(options.host, [this] { RefreshUptimeGauge(); }) {
  for (std::size_t type = 0; type < routes_.size(); ++type) {
    VisitRequest(static_cast<MessageType>(type), [&](auto request) {
      const char* label = request.kKind.label;
      routes_[type] = {label, &MetricsRegistry::Global().GetHistogram(
                                  std::string("serve.request.") + label)};
    });
  }
}

ExplainServer::~ExplainServer() { Stop(); }

void ExplainServer::RegisterService(ScoringService& service) {
  router_.RegisterService(service);
}

void ExplainServer::RegisterExplainer(const std::string& name,
                                      const PointExplainer& explainer) {
  router_.RegisterExplainer(name, explainer);
}

void ExplainServer::RegisterOnlineDataset(OnlineDataset& dataset) {
  router_.RegisterOnlineDataset(dataset);
}

bool ExplainServer::Start(std::string* error) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (loop_thread_.joinable()) {
    if (error != nullptr) *error = "server already running";
    return false;
  }
  if (options_.queue_capacity == 0) {
    if (error != nullptr) *error = "queue_capacity must be >= 1";
    return false;
  }
  listener_ = ListenTcp(options_.host, options_.port, options_.listen_backlog,
                        &port_, error);
  if (!listener_.valid()) return false;
  // Make the prof availability gauges scrapeable from the first request —
  // they exist (as zeros) even where perf_event_open is denied.
  RegisterProfProcessMetrics();
  if (!MakeWakePipe(&wake_read_, &wake_write_, error)) return false;
  started_at_ = Clock::now();
  if (options_.metrics_port >= 0 &&
      !metrics_http_.Start(static_cast<std::uint16_t>(options_.metrics_port),
                           error)) {
    listener_.Close();
    return false;
  }
#ifndef SUBEX_OBS_DISABLED
  if (options_.trace_ring_capacity > 0 && !SpanCollector::Global().enabled()) {
    SpanCollector::Global().Enable(options_.trace_ring_capacity);
  }
  if (options_.slow_request_threshold_ms > 0) {
    slow_capture_ = std::make_unique<SlowRequestCapture>(
        static_cast<std::uint64_t>(options_.slow_request_threshold_ms * 1e6),
        options_.slow_request_capacity);
  }
#endif
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread(&ExplainServer::Loop, this);
  return true;
}

void ExplainServer::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (!loop_thread_.joinable()) return;
  metrics_http_.Stop();  // Scrapes are stateless: no drain.
  stop_requested_.store(true, std::memory_order_release);
  Wake();
  loop_thread_.join();
  running_.store(false, std::memory_order_release);
  // The drain deadline bounds how long the loop waits for handlers, not
  // handler lifetime: wait out any stragglers before closing the wake pipe
  // they may still write to.
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  wake_read_.Close();
  wake_write_.Close();
}

ServerStatsSnapshot ExplainServer::stats() const {
  ServerStatsSnapshot snap;
  snap.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  snap.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  snap.requests_admitted = requests_admitted_.load(std::memory_order_relaxed);
  snap.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  snap.busy_rejections = busy_rejections_.load(std::memory_order_relaxed);
  snap.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  snap.timeouts = timeouts_.load(std::memory_order_relaxed);
  snap.deadline_expired_queue =
      deadline_expired_queue_.load(std::memory_order_relaxed);
  snap.deadline_expired_compute =
      deadline_expired_compute_.load(std::memory_order_relaxed);
  return snap;
}

void ExplainServer::Wake() {
  const std::uint8_t byte = 1;
  // EAGAIN means the pipe already holds unread wake bytes — good enough.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_.fd(), &byte, 1);
}

void ExplainServer::Loop() {
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Connection>> polled;
  bool draining = false;
  Clock::time_point drain_deadline{};

  while (true) {
    if (!draining && stop_requested_.load(std::memory_order_acquire)) {
      draining = true;
      drain_deadline =
          Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
      listener_.Close();  // No new connections; stop reading below.
    }

    pfds.clear();
    polled.clear();
    pfds.push_back(pollfd{wake_read_.fd(), POLLIN, 0});
    if (listener_.valid()) {
      pfds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    }
    for (auto& [fd, conn] : connections_) {
      short events = 0;
      if (!draining) events |= POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        if (!conn->write_queue.empty()) events |= POLLOUT;
      }
      pfds.push_back(pollfd{fd, events, 0});
      polled.push_back(conn);
    }

    int timeout_ms = -1;
    if (draining) {
      timeout_ms = 10;
    } else if (!connections_.empty() && options_.idle_timeout_ms > 0) {
      timeout_ms = std::min(options_.idle_timeout_ms, 250);
    }
    const int ready = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                             timeout_ms);
    if (ready < 0 && errno != EINTR && errno != EAGAIN) break;

    if (pfds[0].revents & POLLIN) {
      std::uint8_t buf[256];
      while (::read(wake_read_.fd(), buf, sizeof(buf)) > 0) {
      }
    }
    std::size_t index = 1;
    if (listener_.valid()) {
      if (pfds[index].revents & POLLIN) AcceptNewConnections();
      ++index;
    }

    for (std::size_t i = 0; i < polled.size(); ++i) {
      const std::shared_ptr<Connection>& conn = polled[i];
      const short revents = pfds[index + i].revents;
      bool alive = true;
      if (revents & POLLOUT) alive = HandleWritable(conn);
      if (alive && (revents & POLLIN)) alive = HandleReadable(conn);
      if (alive && (revents & (POLLERR | POLLNVAL))) alive = false;
      if (alive && (revents & POLLHUP) && !(revents & POLLIN)) alive = false;
      if (alive) {
        std::lock_guard<std::mutex> lock(conn->mutex);
        if (conn->close_after_flush && conn->write_queue.empty() &&
            conn->in_flight.load(std::memory_order_acquire) == 0) {
          alive = false;
        }
      }
      if (!alive) CloseConnection(conn);
    }

    if (!draining && options_.idle_timeout_ms > 0) {
      const Clock::time_point now = Clock::now();
      const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
      // Snapshot first: CloseConnection mutates the map.
      std::vector<std::shared_ptr<Connection>> idle;
      for (auto& [fd, conn] : connections_) {
        if (conn->in_flight.load(std::memory_order_acquire) == 0 &&
            now - conn->last_progress > limit) {
          idle.push_back(conn);
        }
      }
      for (const std::shared_ptr<Connection>& conn : idle) {
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        SUBEX_EVENT(EventSeverity::kInfo, "serve.idle_timeout",
                    JsonObject()
                        .Add("fd", conn->socket.fd())
                        .Add("idle_ms",
                             static_cast<double>(NsSince(conn->last_progress)) /
                                 1e6)
                        .Build());
        CloseConnection(conn);
      }
    }

    if (draining) {
      bool flushed = in_flight_.load(std::memory_order_acquire) == 0;
      if (flushed) {
        for (auto& [fd, conn] : connections_) {
          std::lock_guard<std::mutex> lock(conn->mutex);
          if (!conn->write_queue.empty()) {
            flushed = false;
            break;
          }
        }
      }
      if (flushed || Clock::now() > drain_deadline) break;
    }
  }

  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(connections_.size());
  for (auto& [fd, conn] : connections_) remaining.push_back(conn);
  for (const std::shared_ptr<Connection>& conn : remaining) {
    CloseConnection(conn);
  }
}

void ExplainServer::AcceptNewConnections() {
  while (true) {
    FaultAction fault_action;
    if (SUBEX_FAULT(FaultPoint::kSocketAccept, &fault_action)) {
      // Behave like a transient accept failure: stop this pass. The
      // listener is level-triggered, so pending connections re-signal on
      // the next poll and the loop recovers once the fault clears.
      break;
    }
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN/EWOULDBLOCK: accepted everything pending.
    }
    Socket socket(fd);
    if (!SetNonBlocking(fd, true)) continue;  // Drops the connection.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_gauge_->Add(1);
    connections_.emplace(fd, std::make_shared<Connection>(
                                 std::move(socket), options_.max_frame_bytes));
  }
}

bool ExplainServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  std::uint8_t buf[16384];
  while (true) {
    std::size_t want = sizeof(buf);
    FaultAction fault_action;
    if (SUBEX_FAULT(FaultPoint::kSocketRead, &fault_action)) {
      if (fault_action == FaultAction::kEintr) continue;
      if (fault_action == FaultAction::kShort) {
        want = 1;  // Torn read — the frame decoder must reassemble.
      } else {
        return false;  // Connection torn down like a real recv failure.
      }
    }
    const ssize_t n = ::recv(conn->socket.fd(), buf, want, 0);
    if (n > 0) {
      conn->last_progress = Clock::now();
      bytes_received_->Increment(static_cast<std::uint64_t>(n));
      conn->decoder.Feed(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    } else if (n == 0) {
      return false;  // Orderly EOF from the peer.
    } else {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
  }
  std::vector<std::uint8_t> payload;
  while (conn->decoder.Next(&payload)) {
    DispatchFrame(conn, std::move(payload));
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->close_after_flush) return true;  // Stop parsing a bad stream.
  }
  if (conn->decoder.error()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SUBEX_EVENT(EventSeverity::kWarn, "net.max_frame",
                JsonObject()
                    .Add("max_frame_bytes",
                         static_cast<std::uint64_t>(options_.max_frame_bytes))
                    .Build());
    EnqueueResponse(conn, Encode(MessageType::kError, 0,
                                 TextResult{"frame exceeds maximum size"}));
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->close_after_flush = true;
  }
  return true;
}

bool ExplainServer::HandleWritable(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->mutex);
  TraceSpan flush(conn->write_queue.empty() ? nullptr : write_histogram_);
  while (!conn->write_queue.empty()) {
    const Connection::WriteEntry& entry = conn->write_queue.front();
    const std::vector<std::uint8_t>& front = entry.frame;
    std::size_t want = front.size() - conn->write_offset;
    FaultAction fault_action;
    if (SUBEX_FAULT(FaultPoint::kSocketWrite, &fault_action)) {
      if (fault_action == FaultAction::kEintr) continue;
      if (fault_action == FaultAction::kShort) {
        want = 1;  // Partial write — resumption via write_offset.
      } else {
        return false;  // Connection torn down like a real send failure.
      }
    }
    const ssize_t n = ::send(conn->socket.fd(),
                             front.data() + conn->write_offset, want,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    conn->last_progress = Clock::now();
    bytes_sent_->Increment(static_cast<std::uint64_t>(n));
    conn->write_offset += static_cast<std::size_t>(n);
    if (conn->write_offset == front.size()) {
#ifndef SUBEX_OBS_DISABLED
      // The response's "net.write" span: enqueued by the handler to fully
      // handed to the kernel here, tagged with the request's trace.
      SpanCollector& collector = SpanCollector::Global();
      if (collector.enabled() && entry.enqueued_ns != 0) {
        SpanRecord record;
        record.name = "net.write";
        record.trace_id = entry.trace_id;
        record.span_id = NextSpanId();
        record.parent_id = entry.parent_span_id;
        record.start_ns = entry.enqueued_ns;
        record.duration_ns = NsOf(conn->last_progress) - entry.enqueued_ns;
        collector.Record(std::move(record));
      }
#endif
      conn->write_queue.pop_front();
      conn->write_offset = 0;
      responses_sent_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return true;
}

void ExplainServer::DispatchFrame(const std::shared_ptr<Connection>& conn,
                                  std::vector<std::uint8_t> payload) {
  WireReader reader(payload);
  MessageHeader header;
  if (!DecodeHeader(reader, &header) ||
      header.version != kProtocolVersion || !IsRequestType(header.type)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SUBEX_EVENT(EventSeverity::kWarn, "net.protocol_error",
                JsonObject()
                    .Add("request_id", header.request_id)
                    .Add("bytes", static_cast<std::uint64_t>(payload.size()))
                    .Build());
    EnqueueResponse(conn, Encode(MessageType::kError, header.request_id,
                                 TextResult{"malformed request header"}));
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->close_after_flush = true;
    return;
  }

  // Admission control: the bounded queue is a counter, not a buffer — at
  // capacity the reply is an immediate kBusy and nothing is retained.
  std::size_t current = in_flight_.load(std::memory_order_relaxed);
  do {
    if (current >= options_.queue_capacity) {
      busy_rejections_.fetch_add(1, std::memory_order_relaxed);
      SUBEX_EVENT(
          EventSeverity::kWarn, "serve.busy",
          JsonObject()
              .Add("request_id", header.request_id)
              .Add("queue_capacity",
                   static_cast<std::uint64_t>(options_.queue_capacity))
              .Build());
      EnqueueResponse(
          conn, Encode(MessageType::kBusy, header.request_id, EmptyBody{}));
      return;
    }
  } while (!in_flight_.compare_exchange_weak(current, current + 1,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed));
  requests_admitted_.fetch_add(1, std::memory_order_relaxed);
  conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
  const Clock::time_point admitted = Clock::now();

  if (pool_ != nullptr) {
    pool_->Submit(
        [this, conn, header, admitted, body = std::move(payload)]() mutable {
          RunRequest(conn, header, std::move(body), admitted);
        });
  } else {
    RunRequest(conn, header, std::move(payload), admitted);
  }
}

void ExplainServer::RunRequest(const std::shared_ptr<Connection>& conn,
                               MessageHeader header,
                               std::vector<std::uint8_t> payload,
                               Clock::time_point admitted) {
  const std::uint64_t queue_wait_ns = NsSince(admitted);
  queue_wait_histogram_->Record(queue_wait_ns);

  // The client's deadline is a relative budget stamped at admission.
  // Expired work is dropped here, at queue-dequeue, before any compute —
  // the client has already given up, so the cheapest honest answer is an
  // immediate kDeadlineExceeded.
  const bool has_deadline = header.has_deadline && header.deadline_ms > 0;
  const Clock::time_point deadline =
      admitted + std::chrono::milliseconds(header.deadline_ms);
  if (has_deadline && Clock::now() >= deadline) {
    deadline_expired_queue_.fetch_add(1, std::memory_order_relaxed);
    deadline_queue_counter_->Increment();
    SUBEX_EVENT(EventSeverity::kWarn, "serve.deadline",
                JsonObject()
                    .Add("request_id", header.request_id)
                    .Add("stage", "queue")
                    .Add("deadline_ms",
                         static_cast<std::uint64_t>(header.deadline_ms))
                    .Build());
    EnqueueResponse(conn, Encode(MessageType::kDeadlineExceeded,
                                 header.request_id, EmptyBody{}));
    conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
    in_flight_.fetch_sub(1, std::memory_order_release);
    Wake();
    return;
  }

#ifndef SUBEX_OBS_DISABLED
  // Continue the client's distributed trace (or root a fresh one): the
  // request's spans nest under one root that starts at admission. Traces
  // are pooled per connection — Clear + reuse, no per-request allocation
  // once a connection is warm.
  Trace* trace;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->trace_pool.empty()) {
      trace = new Trace();
    } else {
      trace = conn->trace_pool.back().release();
      conn->trace_pool.pop_back();
    }
  }
  trace->set_trace_id(header.has_trace_id && header.trace_id != 0
                          ? header.trace_id
                          : NextTraceId());
  const std::uint64_t admitted_ns = NsOf(admitted);
  const std::size_t root = trace->OpenSpan("serve.request", admitted_ns);
  const std::uint64_t root_span_id = trace->spans()[root].span_id;
  trace->Record("serve.queue_wait", admitted_ns, queue_wait_ns);
#endif

  // DispatchFrame admitted only IsRequestType types, all of which route.
  const RequestRoute& route = routes_[static_cast<std::size_t>(header.type)];
  std::vector<std::uint8_t> response;
  {
#ifndef SUBEX_OBS_DISABLED
    // Handlers and everything they call (scoring service, chunk loads,
    // explainer pipelines) see this trace via CurrentTrace().
    TraceContext context(trace);
#endif
    const std::size_t header_bytes = EncodedHeaderBytes(header);
    response = router_.Route(header, payload.data() + header_bytes,
                             payload.size() - header_bytes);
  }
  // Second deadline gate, between the compute and write-back stages: a
  // result the client has stopped waiting for is discarded rather than
  // flushed down the pipe.
  if (has_deadline && Clock::now() >= deadline) {
    deadline_expired_compute_.fetch_add(1, std::memory_order_relaxed);
    deadline_compute_counter_->Increment();
    response =
        Encode(MessageType::kDeadlineExceeded, header.request_id, EmptyBody{});
  }
  const std::uint64_t end_to_end_ns = NsSince(admitted);
  request_histogram_->Record(end_to_end_ns);
  route.histogram->Record(end_to_end_ns);

#ifndef SUBEX_OBS_DISABLED
  // Finish the trace BEFORE the response is enqueued: once the client can
  // see the reply it may immediately ask for a kTraceDump, and every span
  // of this request except net.write (which the loop thread records before
  // it can read that dump request) must already be in the collector.
  const std::uint64_t trace_id = trace->trace_id();
  trace->CloseSpan(root, end_to_end_ns);
  if (slow_capture_ != nullptr && slow_capture_->WouldCapture(end_to_end_ns)) {
    slow_capture_->Capture(route.label, header.request_id, trace_id,
                           end_to_end_ns, trace->ToJson());
  }
  trace->Clear();
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->trace_pool.emplace_back(trace);
  }
  EnqueueResponse(conn, std::move(response), trace_id, root_span_id);
#else
  EnqueueResponse(conn, std::move(response));
#endif

  conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  in_flight_.fetch_sub(1, std::memory_order_release);
  Wake();
}

std::uint64_t ExplainServer::RefreshUptimeGauge() {
  const std::uint64_t uptime_seconds = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(Clock::now() -
                                                       started_at_)
          .count());
  uptime_gauge_->Set(static_cast<std::int64_t>(uptime_seconds));
  return uptime_seconds;
}

ServerStatsSections ExplainServer::StatsSections() {
  ServerStatsSections sections;
  sections.uptime_seconds = RefreshUptimeGauge();
  sections.server = stats().ToJson();
#ifndef SUBEX_OBS_DISABLED
  if (slow_capture_ != nullptr) {
    sections.slow_requests = slow_capture_->ToJson();
  }
#endif
  return sections;
}

void ExplainServer::EnqueueResponse(const std::shared_ptr<Connection>& conn,
                                    std::vector<std::uint8_t> payload,
                                    std::uint64_t trace_id,
                                    std::uint64_t parent_span_id) {
  Connection::WriteEntry entry;
  entry.frame = EncodeFrame(payload);
  entry.trace_id = trace_id;
  entry.parent_span_id = parent_span_id;
#ifndef SUBEX_OBS_DISABLED
  entry.enqueued_ns = NsOf(Clock::now());
#endif
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) return;  // Peer already gone; drop the response.
    conn->write_queue.push_back(std::move(entry));
  }
  Wake();
}

void ExplainServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) return;
    conn->closed = true;
    conn->write_queue.clear();
  }
  const int fd = conn->socket.fd();
  conn->socket.Close();
  connections_.erase(fd);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  connections_gauge_->Add(-1);
}

}  // namespace subex
