// Deterministic fuzz of the wire parsers and the request router: valid
// frames survive arbitrary chunking, and truncated/corrupted/garbage inputs
// are rejected cleanly — no crash, no hang, no out-of-bounds read (the
// sanitizer CI lane turns any of those into a failure). Every fuzzed
// request also goes through a `RequestRouter`, which must answer `kError`
// to anything that does not decode.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "detect/lof.h"
#include "explain/beam.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/request_router.h"
#include "net/wire.h"

namespace subex {
namespace {

/// Every request type, exercised with and without the optional trace id
/// and deadline so the fuzz covers all header layouts.
std::vector<std::vector<std::uint8_t>> CorpusPayloads() {
  std::vector<std::vector<std::uint8_t>> corpus;
  const std::uint64_t trace_ids[] = {0, 0xfeedfacecafebeefull};
  const std::uint32_t deadlines[] = {0, 1500};
  for (const std::uint64_t trace : trace_ids) {
    for (const std::uint32_t deadline : deadlines) {
      const auto add = [&](std::uint64_t id, const auto& request) {
        corpus.push_back(
            Encode(request.kKind.type, id, request, trace, deadline));
      };
      add(7, ScoreRequest{"LOF", Subspace({0, 2, 5})});
      add(8, ExplainRequest{"LOF", "Beam", 12, 2, 5});
      add(9, StatsRequest{});
      add(10, TraceDumpRequest{true});
      add(11, IngestRequest{"stream", 2, {1.0, 2.0, 3.0, 4.0}});
      add(12, OnlineScoreRequest{"stream", "LODA", Subspace({1})});
      add(13, OnlineExplainRequest{"stream", "LODA", "Beam", 3, 2, 4});
      add(14, ProfDumpRequest{ProfAction::kStart, 97, false});
    }
  }
  return corpus;
}

/// Header + matching body decode; returns false on any rejection. The fuzz
/// only cares that this never crashes and that intact payloads pass.
bool DecodePayload(const std::vector<std::uint8_t>& payload) {
  WireReader reader(payload);
  MessageHeader header;
  if (!DecodeHeader(reader, &header)) return false;
  bool decoded = false;
  VisitRequest(header.type,
               [&](auto request) { decoded = Decode(reader, &request); });
  return decoded;
}

/// A router over one small dataset, LOF and Beam: fuzzed requests that
/// decode run real handlers (the online ones find no dataset).
class FuzzRouter {
 public:
  FuzzRouter() {
    HicsGeneratorConfig config;
    config.num_points = 40;
    config.subspace_dims = {3, 3};  // 6 features.
    config.seed = 3;
    data_ = GenerateHicsDataset(config);
    service_ = std::make_unique<ScoringService>(lof_, data_.dataset);
    router_.RegisterService(*service_);
    router_.RegisterExplainer("Beam", beam_);
  }

  /// Routes `payload` when its header decodes (the transport rejects the
  /// rest) and checks the reply: well-formed, echoing the request id, and
  /// `kError` whenever the body does not decode.
  void RouteAndCheck(const std::vector<std::uint8_t>& payload) {
    WireReader reader(payload);
    MessageHeader header;
    if (!DecodeHeader(reader, &header)) return;
    const std::size_t header_bytes = EncodedHeaderBytes(header);
    const std::vector<std::uint8_t> reply =
        router_.Route(header, payload.data() + header_bytes,
                      payload.size() - header_bytes);
    WireReader reply_reader(reply);
    MessageHeader reply_header;
    ASSERT_TRUE(DecodeHeader(reply_reader, &reply_header));
    EXPECT_EQ(reply_header.request_id, header.request_id);
    if (!DecodePayload(payload)) {
      EXPECT_EQ(reply_header.type, MessageType::kError);
    }
  }

 private:
  SyntheticDataset data_;
  Lof lof_{5};
  Beam beam_;
  std::unique_ptr<ScoringService> service_;
  RequestRouter router_;
};

/// Feeds `stream` to a decoder in random chunks and decodes every frame
/// that comes out (routing it too when `router` is set). Returns the number
/// of successfully decoded payloads.
int DrainInChunks(const std::vector<std::uint8_t>& stream, Rng& rng,
                  bool* decoder_error = nullptr,
                  FuzzRouter* router = nullptr) {
  FrameDecoder decoder;
  int decoded = 0;
  std::size_t fed = 0;
  std::vector<std::uint8_t> payload;
  while (fed < stream.size()) {
    const std::size_t chunk =
        std::min(stream.size() - fed, rng.UniformIndex(7) + 1);
    decoder.Feed(stream.data() + fed, chunk);
    fed += chunk;
    while (decoder.Next(&payload)) {
      if (DecodePayload(payload)) ++decoded;
      if (router != nullptr) router->RouteAndCheck(payload);
    }
  }
  if (decoder_error != nullptr) *decoder_error = decoder.error();
  return decoded;
}

TEST(FrameFuzz, IntactFramesSurviveArbitraryChunking) {
  const std::vector<std::vector<std::uint8_t>> corpus = CorpusPayloads();
  std::vector<std::uint8_t> stream;
  for (const std::vector<std::uint8_t>& payload : corpus) {
    const std::vector<std::uint8_t> frame = EncodeFrame(payload);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  Rng rng(20260808);
  for (int round = 0; round < 50; ++round) {
    bool error = false;
    EXPECT_EQ(DrainInChunks(stream, rng, &error),
              static_cast<int>(corpus.size()));
    EXPECT_FALSE(error);
  }
}

TEST(FrameFuzz, TruncatedPayloadsAreRejectedAtEveryCut) {
  FuzzRouter router;
  for (const std::vector<std::uint8_t>& payload : CorpusPayloads()) {
    ASSERT_TRUE(DecodePayload(payload));
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const std::vector<std::uint8_t> truncated(payload.begin(),
                                                payload.begin() + cut);
      EXPECT_FALSE(DecodePayload(truncated)) << "cut at " << cut;
      router.RouteAndCheck(truncated);
    }
  }
}

TEST(FrameFuzz, BitFlippedPayloadsNeverCrash) {
  FuzzRouter router;
  Rng rng(42);
  const std::vector<std::vector<std::uint8_t>> corpus = CorpusPayloads();
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> payload = corpus[rng.UniformIndex(corpus.size())];
    const int flips = 1 + static_cast<int>(rng.UniformIndex(4));
    for (int i = 0; i < flips; ++i) {
      const std::size_t pos = rng.UniformIndex(payload.size());
      payload[pos] ^=
          static_cast<std::uint8_t>(1u << rng.UniformIndex(8));
    }
    (void)DecodePayload(payload);  // Any verdict is fine; crashing is not.
    router.RouteAndCheck(payload);
  }
}

TEST(FrameFuzz, PureGarbageStreamsNeverCrashTheDecoder) {
  FuzzRouter router;
  Rng rng(1337);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> stream(rng.UniformIndex(512) + 1);
    for (std::uint8_t& b : stream) {
      b = static_cast<std::uint8_t>(rng.UniformIndex(256));
    }
    // Small length prefixes make the garbage parse as tiny frames; the
    // payload decoders must reject them all without reading out of bounds.
    (void)DrainInChunks(stream, rng, nullptr, &router);
  }
}

TEST(FrameFuzz, OversizeLengthPrefixTripsTheStickyError) {
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  WireWriter writer;
  writer.PutU32(1u << 30);  // A 1 GiB frame announcement.
  const std::vector<std::uint8_t> prefix = writer.Take();
  decoder.Feed(prefix.data(), prefix.size());
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(decoder.Next(&payload));
  EXPECT_TRUE(decoder.error());
  // Sticky: feeding more data cannot resynchronize the stream.
  const std::vector<std::uint8_t> frame = EncodeFrame({1, 2, 3});
  decoder.Feed(frame.data(), frame.size());
  EXPECT_FALSE(decoder.Next(&payload));
  EXPECT_TRUE(decoder.error());
}

TEST(FrameFuzz, TrailingBytesAfterABodyAreRejected) {
  FuzzRouter router;
  for (std::vector<std::uint8_t> payload : CorpusPayloads()) {
    payload.push_back(0x00);  // One stray byte past a well-formed body.
    EXPECT_FALSE(DecodePayload(payload));
    router.RouteAndCheck(payload);
  }
}

}  // namespace
}  // namespace subex
