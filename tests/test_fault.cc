// The fault registry itself: deterministic firing, trigger rules, spec
// parsing, the RAII test hook, and the disarmed fast path.

#include "fault/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace subex {
namespace {

TEST(Fault, DisarmedEvaluatesToFalseAndCountsNothing) {
  FaultControl control;
  FaultAction action;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(SUBEX_FAULT(FaultPoint::kSocketRead, &action));
  }
  const FaultStats stats = FaultRegistry::Global().stats();
  EXPECT_EQ(stats.evaluations, 0u);
  EXPECT_EQ(stats.injected, 0u);
  EXPECT_FALSE(FaultRegistry::Global().any_armed());
}

TEST(Fault, CertainRuleFiresEveryTime) {
  FaultControl control;
  FaultRule rule;
  rule.action = FaultAction::kEintr;
  control.Arm(FaultPoint::kWalAppend, rule);
  FaultAction action = FaultAction::kFail;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(SUBEX_FAULT(FaultPoint::kWalAppend, &action));
    EXPECT_EQ(action, FaultAction::kEintr);
  }
  const FaultStats stats = FaultRegistry::Global().stats();
  EXPECT_EQ(stats.injected, 10u);
  EXPECT_EQ(stats.evaluations, 10u);
  // Other points stay silent.
  EXPECT_FALSE(SUBEX_FAULT(FaultPoint::kSocketRead, &action));
}

TEST(Fault, AfterSkipsTheFirstNEvaluations) {
  FaultControl control;
  FaultRule rule;
  rule.after = 5;
  control.Arm(FaultPoint::kSocketWrite, rule);
  FaultAction action;
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(SUBEX_FAULT(FaultPoint::kSocketWrite, &action)) << i;
  }
  EXPECT_TRUE(SUBEX_FAULT(FaultPoint::kSocketWrite, &action));
}

TEST(Fault, LimitCapsTotalInjections) {
  FaultControl control;
  FaultRule rule;
  rule.limit = 3;
  control.Arm(FaultPoint::kCacheAdmit, rule);
  FaultAction action;
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    if (SUBEX_FAULT(FaultPoint::kCacheAdmit, &action)) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(FaultRegistry::Global().stats().injected, 3u);
}

TEST(Fault, ProbabilityIsDeterministicInTheSeed) {
  auto run = [](std::uint64_t seed) {
    FaultControl control(seed);
    FaultRule rule;
    rule.probability = 0.3;
    FaultRegistry::Global().Arm(FaultPoint::kSocketRead, rule);
    std::vector<bool> fired;
    FaultAction action;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(SUBEX_FAULT(FaultPoint::kSocketRead, &action));
    }
    return fired;
  };
  const std::vector<bool> a = run(42);
  const std::vector<bool> b = run(42);
  const std::vector<bool> c = run(43);
  EXPECT_EQ(a, b);  // Same seed: bit-for-bit the same chaos.
  EXPECT_NE(a, c);  // Different seed: a different (but replayable) run.
  const int fired_a = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired_a, 200 * 3 / 10 / 3);  // Loosely near p=0.3.
  EXPECT_LT(fired_a, 200 * 3 * 2 / 10);
}

TEST(Fault, ArmResetsCountersSoAfterIsRelativeToArming) {
  FaultControl control;
  FaultRule always;
  control.Arm(FaultPoint::kMemReserve, always);
  FaultAction action;
  EXPECT_TRUE(SUBEX_FAULT(FaultPoint::kMemReserve, &action));
  FaultRule after_two;
  after_two.after = 2;
  control.Arm(FaultPoint::kMemReserve, after_two);
  EXPECT_FALSE(SUBEX_FAULT(FaultPoint::kMemReserve, &action));
  EXPECT_FALSE(SUBEX_FAULT(FaultPoint::kMemReserve, &action));
  EXPECT_TRUE(SUBEX_FAULT(FaultPoint::kMemReserve, &action));
}

TEST(Fault, SpecParsesRulesAndActions) {
  FaultControl control;
  std::string error;
  ASSERT_TRUE(FaultRegistry::Global().ConfigureFromSpec(
      "socket_read=1:limit=2;wal_append=1:after=1:action=short;"
      "columnar_pread=0.5:action=eintr",
      &error))
      << error;
  FaultAction action;
  EXPECT_TRUE(SUBEX_FAULT(FaultPoint::kSocketRead, &action));
  EXPECT_TRUE(SUBEX_FAULT(FaultPoint::kSocketRead, &action));
  EXPECT_FALSE(SUBEX_FAULT(FaultPoint::kSocketRead, &action));  // limit=2.
  EXPECT_FALSE(SUBEX_FAULT(FaultPoint::kWalAppend, &action));   // after=1.
  EXPECT_TRUE(SUBEX_FAULT(FaultPoint::kWalAppend, &action));
  EXPECT_EQ(action, FaultAction::kShort);
}

TEST(Fault, SpecRejectsMalformedEntries) {
  FaultControl control;
  std::string error;
  EXPECT_FALSE(FaultRegistry::Global().ConfigureFromSpec("nope=1", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(FaultRegistry::Global().ConfigureFromSpec("socket_read", &error));
  EXPECT_FALSE(
      FaultRegistry::Global().ConfigureFromSpec("socket_read=zap", &error));
  EXPECT_FALSE(FaultRegistry::Global().ConfigureFromSpec(
      "socket_read=1:action=explode", &error));
  EXPECT_FALSE(FaultRegistry::Global().ConfigureFromSpec(
      "socket_read=1:frobnicate=2", &error));
}

TEST(Fault, BadSecondEntryLeavesNoPointArmed) {
  FaultControl control;
  std::string error;
  EXPECT_FALSE(FaultRegistry::Global().ConfigureFromSpec(
      "socket_read=1;wal_append=1:after=x", &error));
  EXPECT_NE(error.find("after=x"), std::string::npos) << error;
  EXPECT_FALSE(FaultRegistry::Global().any_armed());
  for (const FaultPointStats& point : FaultRegistry::Global().stats().points) {
    EXPECT_FALSE(point.armed);
  }
  EXPECT_FALSE(SUBEX_FAULT(FaultPoint::kSocketRead, nullptr));
}

TEST(Fault, ParseFaultSpecArmsNothing) {
  FaultControl control;
  std::vector<FaultSpecEntry> entries;
  std::string error;
  ASSERT_TRUE(ParseFaultSpec("socket_read=0.5:after=3;;wal_append=1:limit=1",
                             &entries, &error))
      << error;
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].point, FaultPoint::kSocketRead);
  EXPECT_EQ(entries[0].rule.probability, 0.5);
  EXPECT_EQ(entries[0].rule.after, 3u);
  EXPECT_EQ(entries[1].point, FaultPoint::kWalAppend);
  EXPECT_EQ(entries[1].rule.limit, 1u);
  EXPECT_FALSE(FaultRegistry::Global().any_armed());
  EXPECT_TRUE(ParseFaultSpec("", &entries));
  EXPECT_TRUE(entries.empty());
  EXPECT_FALSE(ParseFaultSpec("socket_read=2", nullptr, &error));
}

TEST(Fault, PointNamesRoundTrip) {
  for (std::size_t i = 0; i < kNumFaultPoints; ++i) {
    const FaultPoint point = static_cast<FaultPoint>(i);
    FaultPoint parsed;
    ASSERT_TRUE(ParseFaultPoint(FaultPointName(point), &parsed))
        << FaultPointName(point);
    EXPECT_EQ(parsed, point);
  }
  FaultPoint parsed;
  EXPECT_FALSE(ParseFaultPoint("no_such_point", &parsed));
}

TEST(Fault, ControlDisarmsOnScopeExit) {
  {
    FaultControl control;
    control.Arm(FaultPoint::kSocketRead, FaultRule{});
    EXPECT_TRUE(FaultRegistry::Global().any_armed());
  }
  EXPECT_FALSE(FaultRegistry::Global().any_armed());
  FaultAction action;
  EXPECT_FALSE(SUBEX_FAULT(FaultPoint::kSocketRead, &action));
}

TEST(Fault, StatsJsonListsOnlyActivePoints) {
  FaultControl control;
  control.Arm(FaultPoint::kWalSync, FaultRule{});
  FaultAction action;
  (void)SUBEX_FAULT(FaultPoint::kWalSync, &action);
  const std::string json = FaultRegistry::Global().stats().ToJson();
  EXPECT_NE(json.find("wal_sync"), std::string::npos) << json;
  EXPECT_EQ(json.find("socket_read"), std::string::npos) << json;
}

}  // namespace
}  // namespace subex
