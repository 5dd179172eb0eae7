#include "core/metrics.h"

#include <gtest/gtest.h>

#include <vector>

namespace subex {
namespace {

const Subspace kA({0, 1});
const Subspace kB({1, 2});
const Subspace kC({2, 3});
const Subspace kD({3, 4});

TEST(AveragePrecisionTest, PerfectRanking) {
  const std::vector<Subspace> ranked = {kA, kB, kC, kD};
  const std::vector<Subspace> relevant = {kA, kB};
  // P@1 * 1 + P@2 * 1 over |REL| = (1 + 1) / 2.
  EXPECT_DOUBLE_EQ(AveragePrecision(ranked, relevant), 1.0);
}

TEST(AveragePrecisionTest, RelevantAtBottom) {
  const std::vector<Subspace> ranked = {kC, kD, kA};
  const std::vector<Subspace> relevant = {kA};
  EXPECT_NEAR(AveragePrecision(ranked, relevant), 1.0 / 3.0, 1e-12);
}

TEST(AveragePrecisionTest, MixedRanking) {
  const std::vector<Subspace> ranked = {kA, kC, kB};
  const std::vector<Subspace> relevant = {kA, kB};
  // (P@1 + P@3) / 2 = (1 + 2/3) / 2.
  EXPECT_NEAR(AveragePrecision(ranked, relevant), (1.0 + 2.0 / 3.0) / 2.0,
              1e-12);
}

TEST(AveragePrecisionTest, MissedRelevantPenalizedByDenominator) {
  const std::vector<Subspace> ranked = {kA};
  const std::vector<Subspace> relevant = {kA, kB};
  EXPECT_DOUBLE_EQ(AveragePrecision(ranked, relevant), 0.5);
}

TEST(AveragePrecisionTest, NoRelevantReturnsZero) {
  const std::vector<Subspace> ranked = {kA};
  EXPECT_EQ(AveragePrecision(ranked, {}), 0.0);
}

TEST(AveragePrecisionTest, EmptyRankingZero) {
  EXPECT_EQ(AveragePrecision({}, {kA}), 0.0);
}

TEST(AveragePrecisionTest, IdenticalSubspaceMatchIsExact) {
  // {0,1} must not match {0,1,2} (§3.3: identity, not containment).
  const std::vector<Subspace> ranked = {Subspace({0, 1, 2})};
  const std::vector<Subspace> relevant = {Subspace({0, 1})};
  EXPECT_EQ(AveragePrecision(ranked, relevant), 0.0);
}

TEST(RecallTest, Basic) {
  const std::vector<Subspace> ranked = {kA, kC};
  EXPECT_DOUBLE_EQ(Recall(ranked, {kA, kB}), 0.5);
  EXPECT_DOUBLE_EQ(Recall(ranked, {kA, kC}), 1.0);
  EXPECT_DOUBLE_EQ(Recall(ranked, {kB}), 0.0);
  EXPECT_EQ(Recall(ranked, {}), 0.0);
}

TEST(ExplanationScorerTest, AveragesAcrossPoints) {
  ExplanationScorer scorer;
  scorer.AddPoint({kA}, {kA});        // AveP = 1, recall = 1.
  scorer.AddPoint({kC, kA}, {kA});    // AveP = 0.5, recall = 1.
  scorer.AddPoint({kC}, {kA});        // AveP = 0, recall = 0.
  EXPECT_EQ(scorer.num_points(), 3);
  EXPECT_NEAR(scorer.MeanAveragePrecision(), 0.5, 1e-12);
  EXPECT_NEAR(scorer.MeanRecall(), 2.0 / 3.0, 1e-12);
}

TEST(ExplanationScorerTest, EmptyScorer) {
  ExplanationScorer scorer;
  EXPECT_EQ(scorer.MeanAveragePrecision(), 0.0);
  EXPECT_EQ(scorer.MeanRecall(), 0.0);
}

TEST(RocAucTest, PerfectSeparation) {
  const std::vector<double> scores = {0.1, 0.2, 0.3, 0.9, 0.8};
  const std::vector<bool> labels = {false, false, false, true, true};
  EXPECT_DOUBLE_EQ(RocAuc(scores, labels), 1.0);
}

TEST(RocAucTest, PerfectInversion) {
  const std::vector<double> scores = {0.9, 0.8, 0.1};
  const std::vector<bool> labels = {false, false, true};
  EXPECT_DOUBLE_EQ(RocAuc(scores, labels), 0.0);
}

TEST(RocAucTest, TiesGetHalfCredit) {
  const std::vector<double> scores = {0.5, 0.5};
  const std::vector<bool> labels = {false, true};
  EXPECT_DOUBLE_EQ(RocAuc(scores, labels), 0.5);
}

TEST(RocAucTest, KnownMixedValue) {
  const std::vector<double> scores = {0.1, 0.4, 0.35, 0.8};
  const std::vector<bool> labels = {false, true, false, true};
  // Pairs: (0.4>0.1), (0.4>0.35), (0.8>0.1), (0.8>0.35) all correct except
  // none wrong -> AUC = 1.0? (0.4 vs 0.35 correct). All 4 pairs correct.
  EXPECT_DOUBLE_EQ(RocAuc(scores, labels), 1.0);
}

TEST(RocAucTest, SingleClassReturnsHalf) {
  EXPECT_EQ(RocAuc({0.1, 0.2}, {false, false}), 0.5);
}

}  // namespace
}  // namespace subex
