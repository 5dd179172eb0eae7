#include "net/explain_client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/json.h"
#include "obs/span_collector.h"

namespace subex {

void ClientStatsSnapshot::Merge(const ClientStatsSnapshot& other) {
  requests += other.requests;
  busy_retries += other.busy_retries;
  reconnects += other.reconnects;
  transport_errors += other.transport_errors;
  backoff_ns += other.backoff_ns;
  retries_denied += other.retries_denied;
  circuit_opens += other.circuit_opens;
  short_circuits += other.short_circuits;
  deadline_exceeded += other.deadline_exceeded;
}

std::string ClientStatsSnapshot::ToJson() const {
  return JsonObject()
      .Add("requests", requests)
      .Add("busy_retries", busy_retries)
      .Add("reconnects", reconnects)
      .Add("transport_errors", transport_errors)
      .Add("backoff_seconds", BackoffSeconds())
      .Add("retries_denied", retries_denied)
      .Add("circuit_opens", circuit_opens)
      .Add("short_circuits", short_circuits)
      .Add("deadline_exceeded", deadline_exceeded)
      .Build();
}

ExplainClient::ExplainClient(const ExplainClientOptions& options)
    : options_(options),
      decoder_(options.max_frame_bytes),
      retry_tokens_(options.retry_budget_initial) {}

bool ExplainClient::Connect(const std::string& host, std::uint16_t port,
                            std::string* error) {
  Disconnect();
  socket_ = ConnectTcp(host, port, options_.connect_timeout_ms, error);
  if (socket_.valid()) ++connects_;
  return socket_.valid();
}

ClientStatsSnapshot ExplainClient::stats() const {
  ClientStatsSnapshot snap;
  snap.requests = requests_;
  snap.busy_retries = busy_replies_seen_;
  snap.reconnects = connects_ > 0 ? connects_ - 1 : 0;
  snap.transport_errors = transport_errors_;
  snap.backoff_ns = backoff_ns_;
  snap.retries_denied = retries_denied_;
  snap.circuit_opens = circuit_opens_;
  snap.short_circuits = short_circuits_;
  snap.deadline_exceeded = deadline_exceeded_;
  return snap;
}

void ExplainClient::NoteTransportSuccess() {
  consecutive_failures_ = 0;
  breaker_open_ = false;
  retry_tokens_ = std::min(options_.retry_budget_initial,
                           retry_tokens_ + options_.retry_budget_per_success);
}

void ExplainClient::NoteTransportFailure() {
  ++consecutive_failures_;
  if (options_.breaker_failure_threshold > 0 &&
      consecutive_failures_ >= options_.breaker_failure_threshold) {
    // Closed -> open counts once; a failed half-open probe just restarts
    // the cooldown window.
    if (!breaker_open_) ++circuit_opens_;
    breaker_open_ = true;
    breaker_opened_at_ = std::chrono::steady_clock::now();
  }
}

void ExplainClient::Disconnect() {
  socket_.Close();
  decoder_ = FrameDecoder(options_.max_frame_bytes);
}

bool ExplainClient::SendAndReceive(const std::vector<std::uint8_t>& request,
                                   std::uint64_t request_id,
                                   MessageHeader* header,
                                   std::vector<std::uint8_t>* body,
                                   std::string* error) {
  if (!socket_.valid()) {
    *error = "not connected";
    return false;
  }
  const std::vector<std::uint8_t> frame = EncodeFrame(request);
  if (!SendAll(socket_.fd(), frame.data(), frame.size(),
               options_.request_timeout_ms, error)) {
    Disconnect();
    return false;
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.request_timeout_ms);
  std::uint8_t buf[16384];
  std::vector<std::uint8_t> payload;
  while (true) {
    while (decoder_.Next(&payload)) {
      WireReader reader(payload);
      if (!DecodeHeader(reader, header) ||
          header->version != kProtocolVersion) {
        *error = "malformed response header";
        Disconnect();
        return false;
      }
      // A response to a stale request id (e.g. an aborted earlier round
      // trip) is discarded; the protocol echoes ids for exactly this.
      if (header->request_id != request_id) continue;
      body->assign(payload.begin() +
                       static_cast<std::ptrdiff_t>(EncodedHeaderBytes(*header)),
                   payload.end());
      return true;
    }
    if (decoder_.error()) {
      *error = "response frame exceeds maximum size";
      Disconnect();
      return false;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      *error = "request timed out";
      Disconnect();
      return false;
    }
    std::size_t received = 0;
    if (!RecvSome(socket_.fd(), buf, sizeof(buf),
                  static_cast<int>(left.count()), &received, error)) {
      Disconnect();
      return false;
    }
    if (received == 0) {
      *error = "server closed the connection";
      Disconnect();
      return false;
    }
    decoder_.Feed(buf, received);
  }
}

std::uint64_t ExplainClient::BeginTrace() {
#ifndef SUBEX_OBS_DISABLED
  last_trace_id_ = options_.enable_tracing ? NextTraceId() : 0;
#else
  last_trace_id_ = 0;
#endif
  return last_trace_id_;
}

void ExplainClient::RecordClientSpan(
    const char* name, std::uint64_t trace_id,
    std::chrono::steady_clock::time_point start) {
#ifndef SUBEX_OBS_DISABLED
  if (trace_id == 0 || !SpanCollector::Global().enabled()) return;
  const auto duration = std::chrono::steady_clock::now() - start;
  SpanRecord record;
  record.name = name;
  record.trace_id = trace_id;
  record.span_id = NextSpanId();
  record.parent_id = 0;
  record.start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start.time_since_epoch())
          .count());
  record.duration_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(duration).count());
  SpanCollector::Global().Record(record);
#else
  (void)name;
  (void)trace_id;
  (void)start;
#endif
}

ClientStatus ExplainClient::RoundTrip(const std::vector<std::uint8_t>& request,
                                      std::uint64_t request_id,
                                      MessageType* type,
                                      std::vector<std::uint8_t>* body,
                                      std::string* error) {
  ++requests_;
  // While the breaker is open, fail fast without touching the socket; the
  // first call past the cooldown proceeds as the half-open probe.
  if (breaker_open_ &&
      std::chrono::steady_clock::now() - breaker_opened_at_ <
          std::chrono::milliseconds(options_.breaker_cooldown_ms)) {
    ++short_circuits_;
    *error = "circuit breaker open";
    return ClientStatus::kCircuitOpen;
  }
  int backoff_ms = options_.busy_backoff_initial_ms;
  for (int attempt = 0; attempt <= options_.max_busy_retries; ++attempt) {
    if (attempt > 0) {
      // A retry is only taken while the budget holds tokens — under
      // sustained overload the bucket drains and kBusy surfaces to the
      // caller instead of amplifying the congestion.
      if (retry_tokens_ < 1.0) {
        ++retries_denied_;
        *error = "server busy and retry budget exhausted";
        return ClientStatus::kBusy;
      }
      retry_tokens_ -= 1.0;
      const auto sleep_start = std::chrono::steady_clock::now();
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ns_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - sleep_start)
              .count());
      backoff_ms = std::min(backoff_ms * 2, options_.busy_backoff_max_ms);
    }
    MessageHeader header;
    if (!SendAndReceive(request, request_id, &header, body, error)) {
      ++transport_errors_;
      NoteTransportFailure();
      return ClientStatus::kTransportError;
    }
    if (header.type == MessageType::kBusy) {
      ++busy_replies_seen_;
      continue;  // Backpressure: back off and retry.
    }
    if (header.type == MessageType::kDeadlineExceeded) {
      // The transport is healthy — the server just refused stale work.
      ++deadline_exceeded_;
      NoteTransportSuccess();
      *type = header.type;
      *error = "deadline exceeded";
      return ClientStatus::kDeadlineExceeded;
    }
    NoteTransportSuccess();
    *type = header.type;
    return ClientStatus::kOk;  // Some definitive response arrived.
  }
  *error = "server busy after " + std::to_string(options_.max_busy_retries) +
           " retries";
  return ClientStatus::kBusy;
}

template <typename Encode, typename Decode>
ClientStatus ExplainClient::Call(const char* name, bool traced,
                                 MessageType expected, const Encode& encode,
                                 const Decode& decode, std::string* error) {
  const std::uint64_t id = next_request_id_++;
  // Control traffic (TraceDump, Prof*) stays untraced: the dump itself
  // shouldn't pollute the dump, nor the profile.
  const std::uint64_t trace_id = traced ? BeginTrace() : 0;
  const std::uint32_t deadline_ms = traced ? options_.deadline_ms : 0;
  MessageType type = MessageType::kError;
  std::vector<std::uint8_t> body;
  const auto start = std::chrono::steady_clock::now();
  const ClientStatus status = RoundTrip(encode(id, trace_id, deadline_ms), id,
                                        &type, &body, error);
  RecordClientSpan(name, trace_id, start);
  if (status != ClientStatus::kOk) return status;
  WireReader reader(body);
  if (type == MessageType::kError) {
    TextResult text;
    *error = DecodeTextResult(reader, &text) ? text.text
                                             : "undecodable kError body";
    return ClientStatus::kServerError;
  }
  if (type != expected || !decode(reader)) {
    *error = std::string("unexpected response to ") + name;
    return ClientStatus::kTransportError;
  }
  return ClientStatus::kOk;
}

ExplainClient::ScoreReply ExplainClient::Score(const std::string& detector,
                                               const Subspace& subspace) {
  const ScoreRequest request{detector, subspace};
  ScoreResult result;
  ScoreReply reply;
  reply.status = Call(
      "client.score", true, MessageType::kScoreResult,
      [&](std::uint64_t id, std::uint64_t trace_id, std::uint32_t deadline) {
        return EncodeScoreRequest(id, request, trace_id, deadline);
      },
      [&](WireReader& reader) { return DecodeScoreResult(reader, &result); },
      &reply.error);
  if (reply.ok()) reply.scores = std::move(result.scores);
  return reply;
}

ExplainClient::ExplainReply ExplainClient::Explain(const std::string& detector,
                                                   const std::string& explainer,
                                                   int point, int target_dim,
                                                   std::uint32_t max_results) {
  const ExplainRequest request{detector, explainer, point, target_dim,
                               max_results};
  ExplainResult result;
  ExplainReply reply;
  reply.status = Call(
      "client.explain", true, MessageType::kExplainResult,
      [&](std::uint64_t id, std::uint64_t trace_id, std::uint32_t deadline) {
        return EncodeExplainRequest(id, request, trace_id, deadline);
      },
      [&](WireReader& reader) { return DecodeExplainResult(reader, &result); },
      &reply.error);
  if (reply.ok()) reply.ranking = std::move(result.ranking);
  return reply;
}

ExplainClient::StatsReply ExplainClient::Stats() {
  TextResult result;
  StatsReply reply;
  reply.status = Call(
      "client.stats", true, MessageType::kStatsResult,
      [&](std::uint64_t id, std::uint64_t trace_id, std::uint32_t deadline) {
        return EncodeStatsRequest(id, trace_id, deadline);
      },
      [&](WireReader& reader) { return DecodeTextResult(reader, &result); },
      &reply.error);
  if (reply.ok()) reply.json = std::move(result.text);
  return reply;
}

ExplainClient::IngestReply ExplainClient::Ingest(const std::string& dataset,
                                                 std::uint32_t num_rows,
                                                 std::vector<double> values) {
  const IngestRequest request{dataset, num_rows, std::move(values)};
  IngestReply reply;
  reply.status = Call(
      "client.ingest", true, MessageType::kIngestResult,
      [&](std::uint64_t id, std::uint64_t trace_id, std::uint32_t deadline) {
        return EncodeIngestRequest(id, request, trace_id, deadline);
      },
      [&](WireReader& reader) {
        return DecodeIngestResult(reader, &reply.result);
      },
      &reply.error);
  return reply;
}

ExplainClient::OnlineScoreReply ExplainClient::OnlineScore(
    const std::string& dataset, const std::string& detector,
    const Subspace& subspace) {
  const OnlineScoreRequest request{dataset, detector, subspace};
  OnlineScoreResult result;
  OnlineScoreReply reply;
  reply.status = Call(
      "client.online_score", true, MessageType::kOnlineScoreResult,
      [&](std::uint64_t id, std::uint64_t trace_id, std::uint32_t deadline) {
        return EncodeOnlineScoreRequest(id, request, trace_id, deadline);
      },
      [&](WireReader& reader) {
        return DecodeOnlineScoreResult(reader, &result);
      },
      &reply.error);
  if (reply.ok()) {
    reply.epoch = result.epoch;
    reply.scores = std::move(result.scores);
  }
  return reply;
}

ExplainClient::OnlineExplainReply ExplainClient::OnlineExplain(
    const std::string& dataset, const std::string& detector,
    const std::string& explainer, int point, int target_dim,
    std::uint32_t max_results) {
  const OnlineExplainRequest request{dataset,    detector,   explainer,
                                     point,      target_dim, max_results};
  OnlineExplainResult result;
  OnlineExplainReply reply;
  reply.status = Call(
      "client.online_explain", true, MessageType::kOnlineExplainResult,
      [&](std::uint64_t id, std::uint64_t trace_id, std::uint32_t deadline) {
        return EncodeOnlineExplainRequest(id, request, trace_id, deadline);
      },
      [&](WireReader& reader) {
        return DecodeOnlineExplainResult(reader, &result);
      },
      &reply.error);
  if (reply.ok()) {
    reply.computed_epoch = result.computed_epoch;
    reply.current_epoch = result.current_epoch;
    reply.ranking = std::move(result.ranking);
  }
  return reply;
}

ExplainClient::TraceDumpReply ExplainClient::TraceDump(bool clear) {
  const TraceDumpRequest request{clear};
  TextResult result;
  TraceDumpReply reply;
  reply.status = Call(
      "client.trace_dump", false, MessageType::kTraceDumpResult,
      [&](std::uint64_t id, std::uint64_t, std::uint32_t) {
        return EncodeTraceDumpRequest(id, request);
      },
      [&](WireReader& reader) { return DecodeTextResult(reader, &result); },
      &reply.error);
  if (reply.ok()) reply.json = std::move(result.text);
  return reply;
}

ExplainClient::ProfDumpReply ExplainClient::ProfRoundTrip(
    const ProfDumpRequest& request) {
  ProfDumpResult result;
  ProfDumpReply reply;
  reply.status = Call(
      "client.prof", false, MessageType::kProfDumpResult,
      [&](std::uint64_t id, std::uint64_t, std::uint32_t) {
        return EncodeProfDumpRequest(id, request);
      },
      [&](WireReader& reader) { return DecodeProfDumpResult(reader, &result); },
      &reply.error);
  if (reply.ok()) reply.text = std::move(result.text);
  return reply;
}

ExplainClient::ProfDumpReply ExplainClient::ProfStart(std::uint32_t sample_hz) {
  return ProfRoundTrip({ProfAction::kStart, sample_hz, false});
}

ExplainClient::ProfDumpReply ExplainClient::ProfStop() {
  return ProfRoundTrip({ProfAction::kStop, 0, false});
}

ExplainClient::ProfDumpReply ExplainClient::ProfDump(bool clear) {
  return ProfRoundTrip({ProfAction::kDump, 0, clear});
}

}  // namespace subex
