#ifndef SUBEX_EXPLAIN_EXPLANATION_H_
#define SUBEX_EXPLAIN_EXPLANATION_H_

#include <cstddef>
#include <vector>

#include "subspace/subspace.h"

namespace subex {

/// A ranked list of explaining subspaces, best first. `scores[i]` is the
/// algorithm-specific quality of `subspaces[i]` (standardized outlier score,
/// Welch discrepancy, contrast, or marginal gain — whatever the producing
/// algorithm ranks by); scores are comparable only within one result.
struct RankedSubspaces {
  std::vector<Subspace> subspaces;
  std::vector<double> scores;

  std::size_t size() const { return subspaces.size(); }
  bool empty() const { return subspaces.empty(); }

  /// Appends one entry.
  void Add(Subspace subspace, double score) {
    subspaces.push_back(std::move(subspace));
    scores.push_back(score);
  }

  /// Sorts entries by descending score (stable, so producers' insertion
  /// order breaks ties deterministically) and truncates to `max_results`.
  void SortDescendingAndTruncate(std::size_t max_results);

  /// Keeps the `k` best entries, best first, ties broken by position
  /// (`TopKIndices`): a search stage's beam.
  void KeepTop(std::size_t k);
};

}  // namespace subex

#endif  // SUBEX_EXPLAIN_EXPLANATION_H_
