// RequestRouter without sockets: every request type's rejections reach the
// client as kError with their exact text, served scores and rankings are
// bitwise the in-process results, and one router serves many threads.

#include "net/request_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "detect/loda.h"
#include "detect/lof.h"
#include "explain/beam.h"

namespace subex {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr std::size_t kFeatures = 5;

/// Routes a complete request payload the way the server does: header
/// first, then the body bytes after it.
Bytes RoutePayload(const RequestRouter& router, const Bytes& payload) {
  WireReader reader(payload);
  MessageHeader header;
  EXPECT_TRUE(DecodeHeader(reader, &header));
  const std::size_t header_bytes = EncodedHeaderBytes(header);
  return router.Route(header, payload.data() + header_bytes,
                      payload.size() - header_bytes);
}

template <typename Request>
Bytes RouteRequest(const RequestRouter& router, const Request& request,
                   std::uint64_t request_id = 7) {
  return RoutePayload(router,
                      Encode(Request::kKind.type, request_id, request));
}

/// The reply's header, with its body decoded into `*body` when the reply
/// has type `expected`.
template <typename Body>
MessageHeader DecodeReply(const Bytes& reply, MessageType expected,
                          Body* body) {
  WireReader reader(reply);
  MessageHeader header;
  EXPECT_TRUE(DecodeHeader(reader, &header));
  if (header.type == expected) {
    EXPECT_TRUE(Decode(reader, body));
  }
  return header;
}

/// The error text of a `kError` reply; a failure for any other type.
std::string ErrorOf(const Bytes& reply) {
  TextResult text;
  const MessageHeader header = DecodeReply(reply, MessageType::kError, &text);
  EXPECT_EQ(header.type, MessageType::kError);
  return text.text;
}

/// One LOF service over a small HiCS dataset, one online dataset (LODA and
/// LOF) with a full window, and Beam, all behind one router.
class RequestRouterTest : public ::testing::Test {
 protected:
  RequestRouterTest() {
    HicsGeneratorConfig config;
    config.num_points = 80;
    config.subspace_dims = {2, 3};  // 5 features.
    config.seed = 5;
    data_ = GenerateHicsDataset(config);
    service_ = std::make_unique<ScoringService>(lof_, data_.dataset);

    OnlineDatasetOptions options;
    options.name = "stream";
    options.window_capacity = 48;
    options.advance_every = 16;
    options.min_score_window = 16;
    options.drift.min_window = 16;
    online_ = std::make_unique<OnlineDataset>(options, kFeatures);
    Loda::Options loda_options;
    loda_options.num_projections = 8;
    online_->AddLoda("LODA", loda_options);
    online_->AddReindexDetector("LOF", lof_);

    router_.RegisterService(*service_);
    router_.RegisterExplainer("Beam", beam_);
    router_.RegisterOnlineDataset(*online_);
  }

  /// `rows` rows of the HiCS data, row-major.
  std::vector<double> Rows(std::size_t rows) const {
    std::vector<double> values;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t f = 0; f < kFeatures; ++f) {
        values.push_back(data_.dataset.matrix()(r, f));
      }
    }
    return values;
  }

  void FillWindow() {
    IngestResult result;
    const Bytes reply =
        RouteRequest(router_, IngestRequest{"stream", 48, Rows(48)});
    const MessageHeader header =
        DecodeReply(reply, MessageType::kIngestResult, &result);
    ASSERT_EQ(header.type, MessageType::kIngestResult);
    ASSERT_EQ(result.window_size, 48u);
  }

  SyntheticDataset data_;
  Lof lof_{10};
  Beam beam_;
  std::unique_ptr<ScoringService> service_;
  std::unique_ptr<OnlineDataset> online_;
  RequestRouter router_;
};

struct ErrorCase {
  const char* name;
  Bytes request;
  std::string error;
};

/// `payload` with one junk byte after its well-formed body.
Bytes WithTrailingByte(Bytes payload) {
  payload.push_back(0);
  return payload;
}

TEST_F(RequestRouterTest, EveryRejectionIsAnErrorWithItsText) {
  const Subspace ab({0, 1});
  const std::vector<ErrorCase> cases = {
      {"score unknown detector",
       Encode(MessageType::kScore, 7, ScoreRequest{"kNN", ab}),
       "unknown detector: kNN"},
      {"score subspace",
       Encode(MessageType::kScore, 7, ScoreRequest{"LOF", Subspace({0, 5})}),
       "subspace feature out of range"},
      {"score malformed",
       WithTrailingByte(Encode(MessageType::kScore, 7,
                               ScoreRequest{"LOF", ab})),
       "malformed kScore body"},
      {"explain unknown detector",
       Encode(MessageType::kExplain, 7, ExplainRequest{"kNN", "Beam", 0, 2}),
       "unknown detector: kNN"},
      {"explain unknown explainer",
       Encode(MessageType::kExplain, 7, ExplainRequest{"LOF", "HiCS", 0, 2}),
       "unknown explainer: HiCS"},
      {"explain point",
       Encode(MessageType::kExplain, 7, ExplainRequest{"LOF", "Beam", 80, 2}),
       "point index out of range"},
      {"explain negative point",
       Encode(MessageType::kExplain, 7, ExplainRequest{"LOF", "Beam", -1, 2}),
       "point index out of range"},
      {"explain target_dim",
       Encode(MessageType::kExplain, 7, ExplainRequest{"LOF", "Beam", 0, 6}),
       "target_dim out of range"},
      {"explain malformed",
       WithTrailingByte(Encode(MessageType::kExplain, 7,
                               ExplainRequest{"LOF", "Beam", 0, 2})),
       "malformed kExplain body"},
      {"stats malformed",
       WithTrailingByte(Encode(MessageType::kStats, 7, StatsRequest{})),
       "malformed kStats body"},
      {"trace dump malformed",
       WithTrailingByte(Encode(MessageType::kTraceDump, 7, TraceDumpRequest{})),
       "malformed kTraceDump body"},
      {"ingest unknown dataset",
       Encode(MessageType::kIngest, 7, IngestRequest{"other", 1, Rows(1)}),
       "unknown online dataset: other"},
      {"ingest empty",
       Encode(MessageType::kIngest, 7, IngestRequest{"stream", 0, {}}),
       "empty ingest"},
      {"ingest width",
       Encode(MessageType::kIngest, 7,
              IngestRequest{"stream", 1, {1.0, 2.0, 3.0}}),
       "ingest width mismatch"},
      {"ingest not tiling",
       Encode(MessageType::kIngest, 7,
              IngestRequest{"stream", 2, {1.0, 2.0, 3.0}}),
       "malformed kIngest body"},
      {"online score unknown dataset",
       Encode(MessageType::kOnlineScore, 7,
              OnlineScoreRequest{"other", "LODA", ab}),
       "unknown online dataset: other"},
      {"online score subspace",
       Encode(MessageType::kOnlineScore, 7,
              OnlineScoreRequest{"stream", "LODA", Subspace({4, 5})}),
       "subspace feature out of range"},
      {"online score unknown detector",
       Encode(MessageType::kOnlineScore, 7,
              OnlineScoreRequest{"stream", "kNN", ab}),
       "unknown online detector"},
      {"online score malformed",
       WithTrailingByte(Encode(MessageType::kOnlineScore, 7,
                               OnlineScoreRequest{"stream", "LODA", ab})),
       "malformed kOnlineScore body"},
      {"online explain unknown dataset",
       Encode(MessageType::kOnlineExplain, 7,
              OnlineExplainRequest{"other", "LODA", "Beam", 0, 2}),
       "unknown online dataset: other"},
      {"online explain unknown detector",
       Encode(MessageType::kOnlineExplain, 7,
              OnlineExplainRequest{"stream", "kNN", "Beam", 0, 2}),
       "unknown detector: kNN"},
      {"online explain unknown explainer",
       Encode(MessageType::kOnlineExplain, 7,
              OnlineExplainRequest{"stream", "LODA", "HiCS", 0, 2}),
       "unknown explainer: HiCS"},
      {"online explain point",
       Encode(MessageType::kOnlineExplain, 7,
              OnlineExplainRequest{"stream", "LODA", "Beam", 48, 2}),
       "point index out of range"},
      {"online explain target_dim",
       Encode(MessageType::kOnlineExplain, 7,
              OnlineExplainRequest{"stream", "LODA", "Beam", 0, 1}),
       "target_dim out of range"},
      {"online explain malformed",
       WithTrailingByte(
           Encode(MessageType::kOnlineExplain, 7,
                  OnlineExplainRequest{"stream", "LODA", "Beam", 0, 2})),
       "malformed kOnlineExplain body"},
      {"prof malformed",
       WithTrailingByte(Encode(MessageType::kProfDump, 7, ProfDumpRequest{})),
       "malformed kProfDump body"},
      {"not a request",
       Encode(MessageType::kScoreResult, 7, ScoreResult{}),
       "malformed request header"},
  };
  FillWindow();
  for (const ErrorCase& c : cases) {
    SCOPED_TRACE(c.name);
    const Bytes reply = RoutePayload(router_, c.request);
    EXPECT_EQ(ErrorOf(reply), c.error);
    WireReader reader(reply);
    MessageHeader header;
    ASSERT_TRUE(DecodeHeader(reader, &header));
    EXPECT_EQ(header.request_id, 7u) << "the reply echoes the request id";
  }
}

TEST_F(RequestRouterTest, OnlineRequestsBelowTheMinimumWindowAreErrors) {
  const std::string too_small = OnlineDataset::StatusMessage(
      OnlineDataset::Status::kWindowTooSmall);
  const OnlineScoreRequest score{"stream", "LODA", Subspace({0, 1})};
  EXPECT_EQ(ErrorOf(RouteRequest(router_, score)), too_small);
  const OnlineExplainRequest explain{"stream", "LODA", "Beam", 0, 2};
  EXPECT_EQ(ErrorOf(RouteRequest(router_, explain)), too_small);
}

TEST_F(RequestRouterTest, ScoreAndExplainRepliesAreBitwiseInProcess) {
  const Subspace subspace({1, 3});
  ScoreResult score;
  Bytes reply = RouteRequest(router_, ScoreRequest{"LOF", subspace});
  ASSERT_EQ(DecodeReply(reply, MessageType::kScoreResult, &score).type,
            MessageType::kScoreResult);
  EXPECT_EQ(score.scores, ScoreStandardized(lof_, data_.dataset, subspace));

  ExplainResult explained;
  reply = RouteRequest(router_, ExplainRequest{"LOF", "Beam", 3, 2, 4});
  ASSERT_EQ(DecodeReply(reply, MessageType::kExplainResult, &explained).type,
            MessageType::kExplainResult);
  RankedSubspaces expected =
      beam_.Explain(data_.dataset, CachingDetector(*service_), 3, 2);
  expected.subspaces.resize(std::min<std::size_t>(expected.size(), 4));
  expected.scores.resize(expected.subspaces.size());
  EXPECT_EQ(explained.ranking.subspaces, expected.subspaces);
  EXPECT_EQ(explained.ranking.scores, expected.scores);

  FillWindow();
  OnlineScoreResult online;
  reply = RouteRequest(router_, OnlineScoreRequest{"stream", "LODA", subspace});
  ASSERT_EQ(DecodeReply(reply, MessageType::kOnlineScoreResult, &online).type,
            MessageType::kOnlineScoreResult);
  OnlineDataset::ScoredEpoch direct;
  ASSERT_EQ(online_->Score("LODA", subspace, &direct),
            OnlineDataset::Status::kOk);
  EXPECT_EQ(online.epoch, direct.epoch);
  EXPECT_EQ(online.scores, *direct.scores);
}

TEST_F(RequestRouterTest, StatsAndControlRequestsAnswerTheirReplyType) {
  TextResult stats;
  Bytes reply = RouteRequest(router_, StatsRequest{});
  ASSERT_EQ(DecodeReply(reply, MessageType::kStatsResult, &stats).type,
            MessageType::kStatsResult);
  for (const char* key : {"\"uptime_seconds\"", "\"server\"", "\"services\"",
                          "\"online\"", "\"slow_requests\"", "\"fault\""}) {
    EXPECT_NE(stats.text.find(key), std::string::npos) << key;
  }
  TextResult text;
  reply = RouteRequest(router_, TraceDumpRequest{});
  EXPECT_EQ(DecodeReply(reply, MessageType::kTraceDumpResult, &text).type,
            MessageType::kTraceDumpResult);
  reply = RouteRequest(router_, ProfDumpRequest{});
  EXPECT_EQ(DecodeReply(reply, MessageType::kProfDumpResult, &text).type,
            MessageType::kProfDumpResult);
}

TEST_F(RequestRouterTest, ServerSectionsComeFromTheCallback) {
  RequestRouter router([] {
    ServerStatsSections sections;
    sections.uptime_seconds = 42;
    sections.server = "{\"marker\":1}";
    return sections;
  });
  TextResult stats;
  DecodeReply(RouteRequest(router, StatsRequest{}), MessageType::kStatsResult,
              &stats);
  EXPECT_NE(stats.text.find("\"uptime_seconds\":42"), std::string::npos);
  EXPECT_NE(stats.text.find("\"server\":{\"marker\":1}"), std::string::npos);
}

TEST_F(RequestRouterTest, ManyThreadsShareOneRouter) {
  FillWindow();
  const std::vector<Subspace> subspaces = {Subspace({0, 1}), Subspace({1, 2}),
                                           Subspace({2, 4}), Subspace({0, 3})};
  std::vector<std::vector<double>> expected;
  for (const Subspace& s : subspaces) {
    expected.push_back(ScoreStandardized(lof_, data_.dataset, s));
  }
  const Bytes explain_reply =
      RouteRequest(router_, ExplainRequest{"LOF", "Beam", 5, 2, 3});
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        const std::size_t k =
            static_cast<std::size_t>(t + i) % subspaces.size();
        ScoreResult score;
        DecodeReply(RouteRequest(router_, ScoreRequest{"LOF", subspaces[k]}),
                    MessageType::kScoreResult, &score);
        if (score.scores != expected[k]) ++mismatches[t];
        if (RouteRequest(router_, ExplainRequest{"LOF", "Beam", 5, 2, 3}) !=
            explain_reply) {
          ++mismatches[t];
        }
        OnlineScoreResult online;
        DecodeReply(RouteRequest(router_,
                                 OnlineScoreRequest{"stream", "LOF",
                                                    subspaces[k]}),
                    MessageType::kOnlineScoreResult, &online);
        if (online.scores.size() != 48) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace subex
