#ifndef SUBEX_NET_PROTOCOL_H_
#define SUBEX_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "explain/explanation.h"
#include "net/wire.h"
#include "subspace/subspace.h"

namespace subex {

/// Wire protocol version in every header; a server answers another version
/// with `kError` (no negotiation — both ends ship together).
inline constexpr std::uint8_t kProtocolVersion = 1;

/// Message discriminator: requests are < 64, successful responses start at
/// 64, flow-control/error responses at 100 (DESIGN.md §4.2 has the table).
enum class MessageType : std::uint8_t {
  // Requests (client → server).
  kScore = 1,      ///< Standardized score vector of one subspace.
  kExplain = 2,    ///< Ranked explaining subspaces of one point.
  kStats = 3,      ///< Server + per-service counters as JSON.
  kTraceDump = 4,  ///< Collected spans as Chrome trace-event JSON.
  kIngest = 5,         ///< Append rows to a named online dataset.
  kOnlineScore = 6,    ///< Score the current window of an online dataset.
  kOnlineExplain = 7,  ///< Explain a window row of an online dataset.
  kProfDump = 8,       ///< Control/dump the server's sampling profiler.
  // Responses (server → client), each request's type + 63.
  kScoreResult = 64, kExplainResult = 65, kStatsResult = 66,
  kTraceDumpResult = 67, kIngestResult = 68, kOnlineScoreResult = 69,
  kOnlineExplainResult = 70, kProfDumpResult = 71,
  kBusy = 100,   ///< Request queue full — retry with backoff.
  kError = 101,  ///< Malformed or unserviceable request; body is a message.
  kDeadlineExceeded = 102,  ///< The request's deadline expired server-side.
};

/// High bit of the type byte: an optional u64 trace id follows the fixed
/// header. Untraced frames are byte-identical to the pre-trace format.
inline constexpr std::uint8_t kTraceIdFlag = 0x80;

/// High bit of the version byte: an optional u32 relative deadline (ms of
/// remaining budget) follows the header after the optional trace id. Bit 6
/// of the type byte is taken (`kScoreResult` is 64), so it lives here.
inline constexpr std::uint8_t kDeadlineFlag = 0x80;

/// Prelude of every payload: version, type, the client-chosen request id
/// the server echoes back, then the optional trace id and deadline.
struct MessageHeader {
  std::uint8_t version = kProtocolVersion;
  MessageType type = MessageType::kError;
  std::uint64_t request_id = 0;
  bool has_trace_id = false;
  std::uint64_t trace_id = 0;
  bool has_deadline = false;
  std::uint32_t deadline_ms = 0;
};

/// Serialized size of the header without its optional fields.
inline constexpr std::size_t kMessageHeaderBytes = 1 + 1 + 8;

/// Serialized size of `header`, optional fields included (keyed on the
/// `has_*` flags: a flagged header with trace id 0 still counts 8 bytes).
inline constexpr std::size_t EncodedHeaderBytes(const MessageHeader& header) {
  return kMessageHeaderBytes + (header.has_trace_id ? 8 : 0) +
         (header.has_deadline ? 4 : 0);
}

// ---------------------------------------------------------------------------
// Message bodies. Each lists its fields once, in wire order, in `Fields`;
// a field's C++ type picks its wire encoding (see `Put`). Each request
// also names its kind and its reply body (`Reply`).

/// A request's type tag, the tag of its successful reply, and its names.
struct RequestKind {
  MessageType type;
  MessageType reply_type;
  const char* name;   ///< "kScore": names the type in error texts.
  const char* label;  ///< `serve.request.<label>` and `client.<label>`.
};

/// One string: kStats JSON, kTraceDump Chrome trace JSON, kProfDump
/// flamegraph text (`kDump`) or status JSON, or a `kError` message.
struct TextResult {
  std::string text;
  static auto Fields(auto& m) { return std::tie(m.text); }
};

/// The body of `kBusy` and `kDeadlineExceeded`.
struct EmptyBody {
  static auto Fields(auto&) { return std::tie(); }
};

/// `kScoreResult`: bitwise the in-process `ScoringService::Score` vector.
struct ScoreResult {
  std::vector<double> scores;
  static auto Fields(auto& m) { return std::tie(m.scores); }
};

/// `kExplainResult`: ranked subspaces, best first.
struct ExplainResult {
  RankedSubspaces ranking;
  static auto Fields(auto& m) { return std::tie(m.ranking); }
};

/// `kIngestResult`: where the window landed after the append.
struct IngestResult {
  std::uint32_t accepted = 0;        ///< Rows taken.
  std::uint64_t window_epoch = 0;    ///< Epoch after the append.
  std::uint64_t window_size = 0;     ///< Window rows after the append.
  std::uint64_t total_ingested = 0;  ///< Lifetime rows of the dataset.
  std::uint32_t advances = 0;        ///< Window advances this append caused.
  static auto Fields(auto& m) {
    return std::tie(m.accepted, m.window_epoch, m.window_size,
                    m.total_ingested, m.advances);
  }
};

/// `kOnlineScoreResult`: `epoch` names the window the scores describe.
struct OnlineScoreResult {
  std::uint64_t epoch = 0;
  std::vector<double> scores;
  static auto Fields(auto& m) { return std::tie(m.epoch, m.scores); }
};

/// `kOnlineExplainResult`: the ranking and its freshness; `computed_epoch <
/// current_epoch` marks a stale (still self-consistent) serve.
struct OnlineExplainResult {
  std::uint64_t computed_epoch = 0;
  std::uint64_t current_epoch = 0;
  RankedSubspaces ranking;
  static auto Fields(auto& m) {
    return std::tie(m.computed_epoch, m.current_epoch, m.ranking);
  }
};

/// `kScore`: which detector, which subspace.
struct ScoreRequest {
  static constexpr RequestKind kKind{
      MessageType::kScore, MessageType::kScoreResult, "kScore", "score"};
  using Reply = ScoreResult;
  std::string detector;
  Subspace subspace;
  static auto Fields(auto& m) { return std::tie(m.detector, m.subspace); }
};

/// `kExplain`: explain `point` with `explainer` under `detector`: subspaces
/// of exactly `target_dim` features, at most `max_results` if non-zero.
struct ExplainRequest {
  static constexpr RequestKind kKind{
      MessageType::kExplain, MessageType::kExplainResult,
      "kExplain", "explain"};
  using Reply = ExplainResult;
  std::string detector;
  std::string explainer;
  std::int32_t point = 0;
  std::int32_t target_dim = 2;
  std::uint32_t max_results = 0;
  static auto Fields(auto& m) {
    return std::tie(m.detector, m.explainer, m.point, m.target_dim,
                    m.max_results);
  }
};

/// `kStats`: server + per-service counters as one JSON document.
struct StatsRequest {
  static constexpr RequestKind kKind{
      MessageType::kStats, MessageType::kStatsResult, "kStats", "stats"};
  using Reply = TextResult;
  static auto Fields(auto&) { return std::tie(); }
};

/// `kTraceDump`: the server's collected spans; `clear` then empties them.
struct TraceDumpRequest {
  static constexpr RequestKind kKind{
      MessageType::kTraceDump, MessageType::kTraceDumpResult,
      "kTraceDump", "trace_dump"};
  using Reply = TextResult;
  bool clear = false;
  static auto Fields(auto& m) { return std::tie(m.clear); }
};

/// `kIngest`: append `num_rows` row-major points to online dataset
/// `dataset`; the width `values.size() / num_rows` must match its features.
struct IngestRequest {
  static constexpr RequestKind kKind{
      MessageType::kIngest, MessageType::kIngestResult, "kIngest", "ingest"};
  using Reply = IngestResult;
  std::string dataset;
  std::uint32_t num_rows = 0;
  std::vector<double> values;
  static auto Fields(auto& m) {
    return std::tie(m.dataset, m.num_rows, m.values);
  }
};

/// `kOnlineScore`: scores of `dataset`'s current window under `detector`.
struct OnlineScoreRequest {
  static constexpr RequestKind kKind{
      MessageType::kOnlineScore, MessageType::kOnlineScoreResult,
      "kOnlineScore", "online_score"};
  using Reply = OnlineScoreResult;
  std::string dataset;
  std::string detector;
  Subspace subspace;
  static auto Fields(auto& m) {
    return std::tie(m.dataset, m.detector, m.subspace);
  }
};

/// `kOnlineExplain`: explain window row `point` (0 = oldest) of `dataset`.
struct OnlineExplainRequest {
  static constexpr RequestKind kKind{
      MessageType::kOnlineExplain, MessageType::kOnlineExplainResult,
      "kOnlineExplain", "online_explain"};
  using Reply = OnlineExplainResult;
  std::string dataset;
  std::string detector;
  std::string explainer;
  std::int32_t point = 0;
  std::int32_t target_dim = 2;
  std::uint32_t max_results = 0;
  static auto Fields(auto& m) {
    return std::tie(m.dataset, m.detector, m.explainer, m.point,
                    m.target_dim, m.max_results);
  }
};

/// What a `kProfDump` request asks of the server's `SamplingProfiler`.
enum class ProfAction : std::uint8_t {
  kDump = 0,   ///< Export collapsed stacks (optionally clearing after).
  kStart = 1,  ///< Arm per-thread timers at `sample_hz`.
  kStop = 2,   ///< Disarm timers; samples stay dumpable.
};

/// `kProfDump`: drive the server's profiler. `sample_hz` 0 is the default
/// rate; `clear` resets the sample rings after a `kDump`.
struct ProfDumpRequest {
  static constexpr RequestKind kKind{
      MessageType::kProfDump, MessageType::kProfDumpResult,
      "kProfDump", "prof"};
  using Reply = TextResult;
  ProfAction action = ProfAction::kDump;
  std::uint32_t sample_hz = 0;
  bool clear = false;
  static auto Fields(auto& m) {
    return std::tie(m.action, m.sample_hz, m.clear);
  }
};

/// Every request body, in type-tag order.
using RequestBodies =
    std::tuple<ScoreRequest, ExplainRequest, StatsRequest, TraceDumpRequest,
               IngestRequest, OnlineScoreRequest, OnlineExplainRequest,
               ProfDumpRequest>;

/// Calls `visit(Request{})` for the request body tagged `type`; false,
/// without a call, when `type` is not a request.
template <typename Visit>
bool VisitRequest(MessageType type, Visit&& visit) {
  return std::apply(
      [&](auto... body) {
        return ((body.kKind.type == type && (visit(body), true)) || ...);
      },
      RequestBodies{});
}

/// True for the client-issued message types.
inline bool IsRequestType(MessageType type) {
  return VisitRequest(type, [](auto) {});
}

// ---------------------------------------------------------------------------
// Field codec: one `Put`/`Get` pair per wire type, little-endian; strings
// and vectors carry a u32 count. A truncated or invalid field trips the
// reader's sticky error: the wire rejects negative feature ids, a
// `ProfAction` above `kStop` and (`Valid`) ingest values that don't tile.

inline void Put(WireWriter& w, bool v) { w.PutU8(v ? 1 : 0); }
inline void Put(WireWriter& w, std::uint32_t v) { w.PutU32(v); }
inline void Put(WireWriter& w, std::uint64_t v) { w.PutU64(v); }
inline void Put(WireWriter& w, std::int32_t v) { w.PutI32(v); }
inline void Put(WireWriter& w, const std::string& v) { w.PutString(v); }
inline void Put(WireWriter& w, const std::vector<double>& v) {
  w.PutDoubles(v);
}
inline void Put(WireWriter& w, ProfAction v) {
  w.PutU8(static_cast<std::uint8_t>(v));
}
void Put(WireWriter& w, const Subspace& v);         // u16 count, i32 ids
void Put(WireWriter& w, const RankedSubspaces& v);  // (subspace, f64)s

inline void Get(WireReader& r, bool* v) { *v = r.GetU8() != 0; }
inline void Get(WireReader& r, std::uint32_t* v) { *v = r.GetU32(); }
inline void Get(WireReader& r, std::uint64_t* v) { *v = r.GetU64(); }
inline void Get(WireReader& r, std::int32_t* v) { *v = r.GetI32(); }
inline void Get(WireReader& r, std::string* v) { *v = r.GetString(); }
inline void Get(WireReader& r, std::vector<double>* v) { *v = r.GetDoubles(); }
void Get(WireReader& r, ProfAction* v);
void Get(WireReader& r, Subspace* v);
void Get(WireReader& r, RankedSubspaces* v);

bool Valid(const IngestRequest& request);
inline bool Valid(const auto&) { return true; }

/// A writer holding the header of a `type` message. A zero `trace_id` (no
/// generator makes it) or `deadline_ms` leaves that optional field out.
WireWriter BeginMessage(MessageType type, std::uint64_t request_id,
                        std::uint64_t trace_id = 0,
                        std::uint32_t deadline_ms = 0);

/// A complete payload (header + `body`), ready for `EncodeFrame`.
template <typename Body>
std::vector<std::uint8_t> Encode(MessageType type, std::uint64_t request_id,
                                 const Body& body, std::uint64_t trace_id = 0,
                                 std::uint32_t deadline_ms = 0) {
  WireWriter writer = BeginMessage(type, request_id, trace_id, deadline_ms);
  std::apply([&writer](const auto&... field) { (Put(writer, field), ...); },
             Body::Fields(body));
  return writer.Take();
}

/// Consumes the header prelude from `reader`.
bool DecodeHeader(WireReader& reader, MessageHeader* out);

/// Decodes the rest of `reader` into `out`; false (leaving `out`
/// unspecified) on a bad field, trailing bytes or an invalid body.
template <typename Body>
bool Decode(WireReader& reader, Body* out) {
  std::apply([&reader](auto&... field) { (Get(reader, &field), ...); },
             Body::Fields(*out));
  return reader.AtEnd() && Valid(*out);
}

}  // namespace subex

#endif  // SUBEX_NET_PROTOCOL_H_
