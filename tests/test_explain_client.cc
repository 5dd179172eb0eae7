// Decode-path tests for ExplainClient against a scripted raw-socket peer:
// every public call must send exactly its encoded request bytes, turn a
// kError reply into kServerError with the server's message, and reject a
// reply of the wrong type or with a truncated body as kTransportError.

#include "net/explain_client.h"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace subex {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Accepts one connection and answers each request frame with
/// `script(header)`, remembering the last request payload.
class ScriptedPeer {
 public:
  using Script = std::function<Bytes(const MessageHeader&)>;

  ScriptedPeer() {
    std::string error;
    listener_ = ListenTcp("127.0.0.1", 0, 4, &port_, &error);
    EXPECT_TRUE(listener_.valid()) << error;
    thread_ = std::thread([this] { Run(); });
  }
  ~ScriptedPeer() {
    stop_.store(true);
    thread_.join();
  }

  std::uint16_t port() const { return port_; }
  void set_script(Script script) {
    std::lock_guard<std::mutex> lock(mutex_);
    script_ = std::move(script);
  }
  Bytes last_request() {
    std::lock_guard<std::mutex> lock(mutex_);
    return last_request_;
  }

 private:
  void Run() {
    Socket conn;
    while (!stop_.load() && !conn.valid()) {
      pollfd pfd{listener_.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 20) > 0) {
        conn = Socket(::accept(listener_.fd(), nullptr, nullptr));
      }
    }
    FrameDecoder decoder;
    std::uint8_t buf[4096];
    std::string error;
    while (!stop_.load()) {
      std::size_t received = 0;
      if (!RecvSome(conn.fd(), buf, sizeof(buf), 20, &received, &error)) {
        if (error == "receive timed out") continue;
        return;
      }
      if (received == 0) return;
      decoder.Feed(buf, received);
      Bytes payload;
      while (decoder.Next(&payload)) {
        WireReader reader(payload);
        MessageHeader header;
        DecodeHeader(reader, &header);
        Bytes response;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          last_request_ = payload;
          response = script_(header);
        }
        const Bytes frame = EncodeFrame(response);
        SendAll(conn.fd(), frame.data(), frame.size(), 2000, &error);
      }
    }
  }

  Socket listener_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::mutex mutex_;
  Script script_;
  Bytes last_request_;
};

/// How one call ended, whatever its reply type.
struct Outcome {
  ClientStatus status;
  std::string error;
};

/// One public client call: how to make it, the request bytes it must send,
/// and a well-formed reply of its own result type.
struct CallCase {
  const char* name;
  /// Traced calls carry a trace id (when tracing is compiled in) and the
  /// client's deadline; TraceDump and Prof* carry neither.
  bool traced;
  std::function<Outcome(ExplainClient&)> call;
  std::function<Bytes(std::uint64_t id, std::uint64_t trace_id,
                      std::uint32_t deadline_ms)>
      request;
  std::function<Bytes(std::uint64_t id)> good_reply;
};

template <typename Reply>
Outcome OutcomeOf(const Reply& reply) {
  return {reply.status, reply.error};
}

RankedSubspaces OneRanking() {
  RankedSubspaces ranking;
  ranking.Add(Subspace({0, 1}), 2.5);
  return ranking;
}

std::vector<CallCase> AllCalls() {
  const Subspace subspace({0, 2});
  return {
      {"Score", true,
       [=](ExplainClient& c) { return OutcomeOf(c.Score("LOF", subspace)); },
       [=](std::uint64_t id, std::uint64_t t, std::uint32_t d) {
         return Encode(MessageType::kScore, id, ScoreRequest{"LOF", subspace},
                       t, d);
       },
       [](std::uint64_t id) {
         return Encode(MessageType::kScoreResult, id, ScoreResult{{0.5, 1.5}});
       }},
      {"Explain", true,
       [](ExplainClient& c) {
         return OutcomeOf(c.Explain("LOF", "Beam", 3, 2, 5));
       },
       [](std::uint64_t id, std::uint64_t t, std::uint32_t d) {
         return Encode(MessageType::kExplain, id,
                       ExplainRequest{"LOF", "Beam", 3, 2, 5}, t, d);
       },
       [](std::uint64_t id) {
         return Encode(MessageType::kExplainResult, id,
                       ExplainResult{OneRanking()});
       }},
      {"Stats", true, [](ExplainClient& c) { return OutcomeOf(c.Stats()); },
       [](std::uint64_t id, std::uint64_t t, std::uint32_t d) {
         return Encode(MessageType::kStats, id, StatsRequest{}, t, d);
       },
       [](std::uint64_t id) {
         return Encode(MessageType::kStatsResult, id, TextResult{"{\"ok\":1}"});
       }},
      {"Ingest", true,
       [](ExplainClient& c) {
         return OutcomeOf(c.Ingest("stream", 2, {1.0, 2.0, 3.0, 4.0}));
       },
       [](std::uint64_t id, std::uint64_t t, std::uint32_t d) {
         return Encode(MessageType::kIngest, id,
                       IngestRequest{"stream", 2, {1.0, 2.0, 3.0, 4.0}}, t, d);
       },
       [](std::uint64_t id) {
         return Encode(MessageType::kIngestResult, id,
                       IngestResult{2, 7, 64, 130, 1});
       }},
      {"OnlineScore", true,
       [=](ExplainClient& c) {
         return OutcomeOf(c.OnlineScore("stream", "LODA", subspace));
       },
       [=](std::uint64_t id, std::uint64_t t, std::uint32_t d) {
         return Encode(MessageType::kOnlineScore, id,
                       OnlineScoreRequest{"stream", "LODA", subspace}, t, d);
       },
       [](std::uint64_t id) {
         return Encode(MessageType::kOnlineScoreResult, id,
                       OnlineScoreResult{9, {0.25}});
       }},
      {"OnlineExplain", true,
       [](ExplainClient& c) {
         return OutcomeOf(c.OnlineExplain("stream", "LODA", "Beam", 4, 2, 3));
       },
       [](std::uint64_t id, std::uint64_t t, std::uint32_t d) {
         return Encode(MessageType::kOnlineExplain, id,
                       OnlineExplainRequest{"stream", "LODA", "Beam", 4, 2, 3},
                       t, d);
       },
       [](std::uint64_t id) {
         return Encode(MessageType::kOnlineExplainResult, id,
                       OnlineExplainResult{5, 6, OneRanking()});
       }},
      {"TraceDump", false,
       [](ExplainClient& c) { return OutcomeOf(c.TraceDump(true)); },
       [](std::uint64_t id, std::uint64_t, std::uint32_t) {
         return Encode(MessageType::kTraceDump, id, TraceDumpRequest{true});
       },
       [](std::uint64_t id) {
         return Encode(MessageType::kTraceDumpResult, id,
                       TextResult{"{\"traceEvents\":[]}"});
       }},
      {"ProfStart", false,
       [](ExplainClient& c) { return OutcomeOf(c.ProfStart(97)); },
       [](std::uint64_t id, std::uint64_t, std::uint32_t) {
         return Encode(MessageType::kProfDump, id,
                       ProfDumpRequest{ProfAction::kStart, 97, false});
       },
       [](std::uint64_t id) {
         return Encode(MessageType::kProfDumpResult, id,
                       TextResult{"{\"running\":true}"});
       }},
      {"ProfStop", false,
       [](ExplainClient& c) { return OutcomeOf(c.ProfStop()); },
       [](std::uint64_t id, std::uint64_t, std::uint32_t) {
         return Encode(MessageType::kProfDump, id,
                       ProfDumpRequest{ProfAction::kStop, 0, false});
       },
       [](std::uint64_t id) {
         return Encode(MessageType::kProfDumpResult, id,
                       TextResult{"{\"running\":false}"});
       }},
      {"ProfDump", false,
       [](ExplainClient& c) { return OutcomeOf(c.ProfDump(true)); },
       [](std::uint64_t id, std::uint64_t, std::uint32_t) {
         return Encode(MessageType::kProfDump, id,
                       ProfDumpRequest{ProfAction::kDump, 0, true});
       },
       [](std::uint64_t id) {
         return Encode(MessageType::kProfDumpResult, id,
                       TextResult{"main;burn 3\n"});
       }},
  };
}

/// A well-formed reply of a type no call above expects for `good`:
/// `kScoreResult` doubles (which do not parse as a string body) for every
/// call but Score, which gets a `kStatsResult`.
Bytes WrongTypeReply(const Bytes& good, std::uint64_t id) {
  WireReader reader(good);
  MessageHeader header;
  DecodeHeader(reader, &header);
  if (header.type == MessageType::kScoreResult) {
    return Encode(MessageType::kStatsResult, id, TextResult{"{}"});
  }
  return Encode(MessageType::kScoreResult, id, ScoreResult{{1.0, 2.0}});
}

constexpr std::uint32_t kDeadlineMs = 250;

class ExplainClientDecodeTest : public ::testing::TestWithParam<int> {};

TEST_P(ExplainClientDecodeTest, EveryReplyShapeIsHandled) {
  const CallCase call = AllCalls()[static_cast<std::size_t>(GetParam())];
  SCOPED_TRACE(call.name);
  ScriptedPeer peer;
  ExplainClientOptions options;
  options.deadline_ms = kDeadlineMs;
  options.request_timeout_ms = 5000;
  ExplainClient client(options);
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", peer.port(), &error)) << error;

  std::uint64_t id = 0;
  // Each call must send exactly its encoded request bytes.
  const auto expect_request_bytes = [&] {
    ++id;
    const std::uint64_t trace_id = call.traced ? client.last_trace_id() : 0;
#ifndef SUBEX_OBS_DISABLED
    if (call.traced) {
      EXPECT_NE(trace_id, 0u);
    }
#endif
    EXPECT_EQ(peer.last_request(),
              call.request(id, trace_id, call.traced ? kDeadlineMs : 0));
  };

  peer.set_script([](const MessageHeader& header) {
    return Encode(MessageType::kError, header.request_id,
                  TextResult{"scripted failure"});
  });
  Outcome outcome = call.call(client);
  EXPECT_EQ(outcome.status, ClientStatus::kServerError);
  EXPECT_EQ(outcome.error, "scripted failure");
  expect_request_bytes();

  peer.set_script([&](const MessageHeader& header) {
    return WrongTypeReply(call.good_reply(header.request_id),
                          header.request_id);
  });
  outcome = call.call(client);
  EXPECT_EQ(outcome.status, ClientStatus::kTransportError);
  expect_request_bytes();

  peer.set_script([&](const MessageHeader& header) {
    Bytes reply = call.good_reply(header.request_id);
    reply.pop_back();
    return reply;
  });
  outcome = call.call(client);
  EXPECT_EQ(outcome.status, ClientStatus::kTransportError);
  expect_request_bytes();

  peer.set_script([&](const MessageHeader& header) {
    return call.good_reply(header.request_id);
  });
  outcome = call.call(client);
  EXPECT_EQ(outcome.status, ClientStatus::kOk) << outcome.error;
  expect_request_bytes();
  EXPECT_TRUE(client.connected());
}

INSTANTIATE_TEST_SUITE_P(
    AllCalls, ExplainClientDecodeTest, ::testing::Range(0, 10),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(AllCalls()[static_cast<std::size_t>(info.param)].name);
    });

TEST(ExplainClientTest, GoodRepliesDecodeIntoTheirFields) {
  ScriptedPeer peer;
  ExplainClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", peer.port(), &error)) << error;

  peer.set_script([](const MessageHeader& header) {
    return Encode(MessageType::kOnlineExplainResult, header.request_id,
                  OnlineExplainResult{5, 6, OneRanking()});
  });
  const ExplainClient::OnlineExplainReply online =
      client.OnlineExplain("stream", "LODA", "Beam", 0, 2);
  ASSERT_TRUE(online.ok()) << online.error;
  EXPECT_EQ(online.computed_epoch, 5u);
  EXPECT_EQ(online.current_epoch, 6u);
  EXPECT_TRUE(online.stale());
  EXPECT_EQ(online.ranking.subspaces, OneRanking().subspaces);
  EXPECT_EQ(online.ranking.scores, OneRanking().scores);

  peer.set_script([](const MessageHeader& header) {
    return Encode(MessageType::kIngestResult, header.request_id,
                  IngestResult{2, 7, 64, 130, 1});
  });
  const ExplainClient::IngestReply ingest = client.Ingest("stream", 1, {1.0});
  ASSERT_TRUE(ingest.ok()) << ingest.error;
  EXPECT_EQ(ingest.result.window_epoch, 7u);
  EXPECT_EQ(ingest.result.total_ingested, 130u);

  peer.set_script([](const MessageHeader& header) {
    return Encode(MessageType::kStatsResult, header.request_id,
                  TextResult{"{\"ok\":1}"});
  });
  const ExplainClient::StatsReply stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_EQ(stats.json, "{\"ok\":1}");
}

// The string-bodied replies (stats, trace dump, profiler) share one body
// shape, so only the reply type tells them apart: each call accepts its
// own result type and no other.
TEST(ExplainClientTest, StringRepliesRequireTheirOwnType) {
  ScriptedPeer peer;
  ExplainClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", peer.port(), &error)) << error;

  peer.set_script([](const MessageHeader& header) {
    return Encode(MessageType::kStatsResult, header.request_id,
                  TextResult{"{}"});
  });
  EXPECT_EQ(client.TraceDump().status, ClientStatus::kTransportError);
  EXPECT_EQ(client.ProfDump().status, ClientStatus::kTransportError);

  peer.set_script([](const MessageHeader& header) {
    return Encode(MessageType::kTraceDumpResult, header.request_id,
                  TextResult{"{}"});
  });
  EXPECT_EQ(client.Stats().status, ClientStatus::kTransportError);
  EXPECT_EQ(client.ProfStart().status, ClientStatus::kTransportError);
  EXPECT_TRUE(client.TraceDump().ok());
}

}  // namespace
}  // namespace subex
