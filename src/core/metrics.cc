#include "core/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace subex {
namespace {

bool IsRelevant(const Subspace& s, const std::vector<Subspace>& relevant) {
  return std::find(relevant.begin(), relevant.end(), s) != relevant.end();
}

}  // namespace

double AveragePrecision(const std::vector<Subspace>& ranked,
                        const std::vector<Subspace>& relevant) {
  if (relevant.empty()) return 0.0;
  double sum = 0.0;
  int hits = 0;
  for (std::size_t k = 0; k < ranked.size(); ++k) {
    if (IsRelevant(ranked[k], relevant)) {
      ++hits;
      sum += static_cast<double>(hits) / static_cast<double>(k + 1);
    }
  }
  return sum / static_cast<double>(relevant.size());
}

double Recall(const std::vector<Subspace>& ranked,
              const std::vector<Subspace>& relevant) {
  if (relevant.empty()) return 0.0;
  int hits = 0;
  for (const Subspace& r : relevant) {
    if (std::find(ranked.begin(), ranked.end(), r) != ranked.end()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(relevant.size());
}

void ExplanationScorer::AddPoint(const std::vector<Subspace>& ranked,
                                 const std::vector<Subspace>& relevant) {
  sum_average_precision_ += AveragePrecision(ranked, relevant);
  sum_recall_ += Recall(ranked, relevant);
  ++num_points_;
}

double ExplanationScorer::MeanAveragePrecision() const {
  return num_points_ == 0 ? 0.0
                          : sum_average_precision_ / num_points_;
}

double ExplanationScorer::MeanRecall() const {
  return num_points_ == 0 ? 0.0 : sum_recall_ / num_points_;
}

double RocAuc(const std::vector<double>& scores,
              const std::vector<bool>& is_outlier) {
  SUBEX_CHECK(scores.size() == is_outlier.size());
  double positives = 0.0;
  double negatives = 0.0;
  for (bool o : is_outlier) (o ? positives : negatives) += 1.0;
  if (positives == 0.0 || negatives == 0.0) return 0.5;
  // Rank-sum (Mann-Whitney) formulation with midrank tie handling.
  std::vector<int> order(scores.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return scores[a] < scores[b]; });
  double rank_sum = 0.0;
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() &&
           scores[order[j + 1]] == scores[order[i]]) {
      ++j;
    }
    const double midrank = 0.5 * (static_cast<double>(i) +
                                  static_cast<double>(j)) + 1.0;
    for (std::size_t t = i; t <= j; ++t) {
      if (is_outlier[order[t]]) rank_sum += midrank;
    }
    i = j + 1;
  }
  return (rank_sum - positives * (positives + 1.0) / 2.0) /
         (positives * negatives);
}

}  // namespace subex
