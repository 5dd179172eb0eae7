// Golden bytes of every message kind on the wire: each request, each
// result, the three flow-control replies, and the two optional header
// fields. The expected hex is frozen — a change here is a wire break, so
// bump kProtocolVersion instead of editing an expectation.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace subex {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::string ToHex(const Bytes& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const std::uint8_t b : bytes) {
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xF];
  }
  return hex;
}

RankedSubspaces TwoRanked() {
  RankedSubspaces ranking;
  ranking.Add(Subspace({1, 4}), 2.5);
  ranking.Add(Subspace({0, 3}), -0.125);
  return ranking;
}

struct GoldenCase {
  const char* name;
  Bytes payload;
  const char* hex;
};

std::vector<GoldenCase> GoldenCases() {
  return {
      {"Score", Encode(MessageType::kScore, 1,
                       ScoreRequest{"LOF", Subspace({0, 2})}),
       "01010100000000000000030000004c4f4602000000000002000000"},
      {"Explain",
       Encode(MessageType::kExplain, 2, ExplainRequest{"LOF", "Beam", 7, 3, 5}),
       "01020200000000000000030000004c4f46040000004265616d07000000030000"
       "0005000000"},
      {"Stats", Encode(MessageType::kStats, 3, StatsRequest{}),
       "01030300000000000000"},
      {"TraceDump", Encode(MessageType::kTraceDump, 4, TraceDumpRequest{true}),
       "0104040000000000000001"},
      {"Ingest",
       Encode(MessageType::kIngest, 5,
              IngestRequest{"s", 2, {1.0, -2.0, 0.5, 4.0}}),
       "0105050000000000000001000000730200000004000000000000000000f03f00"
       "000000000000c0000000000000e03f0000000000001040"},
      {"OnlineScore",
       Encode(MessageType::kOnlineScore, 6,
              OnlineScoreRequest{"s", "LODA", Subspace({1, 3})}),
       "010606000000000000000100000073040000004c4f4441020001000000030000"
       "00"},
      {"OnlineExplain",
       Encode(MessageType::kOnlineExplain, 7,
              OnlineExplainRequest{"s", "LODA", "Beam", 9, 2, 4}),
       "010707000000000000000100000073040000004c4f4441040000004265616d09"
       "0000000200000004000000"},
      {"ProfDump",
       Encode(MessageType::kProfDump, 8,
              ProfDumpRequest{ProfAction::kStop, 97, true}),
       "01080800000000000000026100000001"},
      {"ScoreResult", Encode(MessageType::kScoreResult, 1,
                             ScoreResult{{0.5, -1.5}}),
       "0140010000000000000002000000000000000000e03f000000000000f8bf"},
      {"ExplainResult", Encode(MessageType::kExplainResult, 2,
                               ExplainResult{TwoRanked()}),
       "0141020000000000000002000000020001000000040000000000000000000440"
       "02000000000003000000000000000000c0bf"},
      {"StatsResult", Encode(MessageType::kStatsResult, 3,
                             TextResult{"{\"a\":1}"}),
       "01420300000000000000070000007b2261223a317d"},
      {"TraceDumpResult", Encode(MessageType::kTraceDumpResult, 4,
                                 TextResult{"[]"}),
       "01430400000000000000020000005b5d"},
      {"IngestResult",
       Encode(MessageType::kIngestResult, 5, IngestResult{2, 11, 64, 1000, 1}),
       "01440500000000000000020000000b000000000000004000000000000000e803"
       "00000000000001000000"},
      {"OnlineScoreResult",
       Encode(MessageType::kOnlineScoreResult, 6, OnlineScoreResult{12, {3.0}}),
       "014506000000000000000c00000000000000010000000000000000000840"},
      {"OnlineExplainResult",
       Encode(MessageType::kOnlineExplainResult, 7,
              OnlineExplainResult{12, 13, TwoRanked()}),
       "014607000000000000000c000000000000000d00000000000000020000000200"
       "0100000004000000000000000000044002000000000003000000000000000000"
       "c0bf"},
      {"ProfDumpResult", Encode(MessageType::kProfDumpResult, 8,
                                TextResult{"a;b 3\n"}),
       "0147080000000000000006000000613b6220330a"},
      {"Busy", Encode(MessageType::kBusy, 9, EmptyBody{}),
       "01640900000000000000"},
      {"Error", Encode(MessageType::kError, 10, TextResult{"no"}),
       "01650a00000000000000020000006e6f"},
      {"DeadlineExceeded", Encode(MessageType::kDeadlineExceeded, 11,
                                  EmptyBody{}),
       "01660b00000000000000"},
      {"TracedExplain",
       Encode(MessageType::kExplain, 12, ExplainRequest{"LOF", "Beam", 0, 2, 0},
              /*trace_id=*/0x0102030405060708ull),
       "01820c000000000000000807060504030201030000004c4f4604000000426561"
       "6d000000000200000000000000"},
      {"DeadlineOnlineScore",
       Encode(MessageType::kOnlineScore, 13,
              OnlineScoreRequest{"s", "LOF", Subspace({2})}, /*trace_id=*/0,
              /*deadline_ms=*/500),
       "81060d00000000000000f40100000100000073030000004c4f46010002000000"},
  };
}

class WireGoldenTest : public ::testing::TestWithParam<int> {};

TEST_P(WireGoldenTest, EncodesTheFrozenBytes) {
  const GoldenCase golden =
      GoldenCases()[static_cast<std::size_t>(GetParam())];
  EXPECT_EQ(ToHex(golden.payload), golden.hex);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, WireGoldenTest,
    ::testing::Range(0, static_cast<int>(GoldenCases().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(
          GoldenCases()[static_cast<std::size_t>(info.param)].name);
    });

}  // namespace
}  // namespace subex
