#include "net/protocol.h"

namespace subex {

WireWriter BeginMessage(MessageType type, std::uint64_t request_id,
                        std::uint64_t trace_id, std::uint32_t deadline_ms) {
  WireWriter writer;
  writer.PutU8(deadline_ms != 0 ? (kProtocolVersion | kDeadlineFlag)
                                : kProtocolVersion);
  writer.PutU8(static_cast<std::uint8_t>(type) |
               (trace_id != 0 ? kTraceIdFlag : 0));
  writer.PutU64(request_id);
  if (trace_id != 0) writer.PutU64(trace_id);
  if (deadline_ms != 0) writer.PutU32(deadline_ms);
  return writer;
}

bool DecodeHeader(WireReader& reader, MessageHeader* out) {
  const std::uint8_t raw_version = reader.GetU8();
  out->version = raw_version & static_cast<std::uint8_t>(~kDeadlineFlag);
  out->has_deadline = (raw_version & kDeadlineFlag) != 0;
  const std::uint8_t raw_type = reader.GetU8();
  out->type = static_cast<MessageType>(raw_type & ~kTraceIdFlag);
  out->request_id = reader.GetU64();
  out->has_trace_id = (raw_type & kTraceIdFlag) != 0;
  // A flagged header cut short trips the reader's sticky error.
  out->trace_id = out->has_trace_id ? reader.GetU64() : 0;
  out->deadline_ms = out->has_deadline ? reader.GetU32() : 0;
  return reader.ok();
}

void Put(WireWriter& w, const Subspace& v) {
  w.PutU16(static_cast<std::uint16_t>(v.size()));
  for (const FeatureId f : v.features()) w.PutI32(f);
}

void Put(WireWriter& w, const RankedSubspaces& v) {
  w.PutU32(static_cast<std::uint32_t>(v.size()));
  for (std::size_t i = 0; i < v.size(); ++i) {
    Put(w, v.subspaces[i]);
    w.PutDouble(v.scores[i]);
  }
}

void Get(WireReader& r, ProfAction* v) {
  const std::uint8_t action = r.GetU8();
  if (action > static_cast<std::uint8_t>(ProfAction::kStop)) r.Fail();
  *v = static_cast<ProfAction>(action);
}

void Get(WireReader& r, Subspace* v) {
  const std::uint16_t count = r.GetU16();
  std::vector<FeatureId> features;
  features.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    features.push_back(r.GetI32());
    // A negative id would trip the Subspace invariant check (fatal).
    if (features.back() < 0) r.Fail();
  }
  if (r.ok()) *v = Subspace(std::move(features));
}

void Get(WireReader& r, RankedSubspaces* v) {
  const std::uint32_t count = r.GetU32();
  *v = RankedSubspaces{};
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    Subspace subspace;
    Get(r, &subspace);
    const double score = r.GetDouble();
    if (r.ok()) v->Add(std::move(subspace), score);
  }
}

bool Valid(const IngestRequest& request) {
  // Row-major values must tile into exactly num_rows rows.
  return request.num_rows == 0 ? request.values.empty()
                               : request.values.size() % request.num_rows == 0;
}

}  // namespace subex
