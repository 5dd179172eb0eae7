#include "explain/explanation.h"

#include <algorithm>
#include <numeric>

#include "common/topk.h"

namespace subex {
namespace {

/// Keeps the entries of `ranked` at `order`, in that order.
void Reorder(RankedSubspaces& ranked, const std::vector<int>& order) {
  std::vector<Subspace> subspaces;
  std::vector<double> scores;
  subspaces.reserve(order.size());
  scores.reserve(order.size());
  for (int i : order) {
    subspaces.push_back(std::move(ranked.subspaces[i]));
    scores.push_back(ranked.scores[i]);
  }
  ranked.subspaces = std::move(subspaces);
  ranked.scores = std::move(scores);
}

}  // namespace

void RankedSubspaces::SortDescendingAndTruncate(std::size_t max_results) {
  std::vector<int> order(subspaces.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [this](int a, int b) { return scores[a] > scores[b]; });
  if (order.size() > max_results) order.resize(max_results);
  Reorder(*this, order);
}

void RankedSubspaces::KeepTop(std::size_t k) {
  Reorder(*this, TopKIndices(scores, k));
}

}  // namespace subex
