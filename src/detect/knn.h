#ifndef SUBEX_DETECT_KNN_H_
#define SUBEX_DETECT_KNN_H_

#include <span>
#include <vector>

#include "data/dataset.h"
#include "subspace/subspace.h"

namespace subex {

/// One neighbor of a query point.
struct Neighbor {
  double distance = 0.0;  // Euclidean, within the query subspace.
  int index = -1;
};

/// k-nearest-neighbor lists for every point of a dataset within one
/// subspace. `neighbors[p]` holds up to k entries sorted by ascending
/// distance, excluding `p` itself. Ties are broken by point index so
/// results are deterministic.
struct KnnTable {
  int k = 0;
  std::vector<std::vector<Neighbor>> neighbors;

  /// Distance from point `p` to its k-th nearest neighbor.
  double KDistance(int p) const { return neighbors[p].back().distance; }
};

/// The brute-force kNN kernel behind `ComputeKnn` and the chunked scorers:
/// for a batch of query points it keeps the k best candidates seen so far
/// under the (distance, index) order, fed one block of candidate rows at a
/// time. Values arrive as one column pointer per subspace feature, so the
/// in-RAM path (gathered columns, one block) and the chunked path (pinned
/// chunks, one block per chunk) run the same distance and heap code.
///
/// The order is total (indices are unique), so the lists do not depend on
/// how the candidates are split into blocks.
class KnnSearch {
 public:
  /// Queries of a dataset of `num_points` points: query `i` is point
  /// `query_ids[i]` (never its own neighbor) and `query_values` holds their
  /// values column-major, feature `j` of query `i` at
  /// `[j * query_ids.size() + i]`. Both must outlive the search. `k` is
  /// clamped to `num_points - 1`.
  KnnSearch(int k, std::size_t num_points, std::span<const int> query_ids,
            std::span<const double> query_values);

  /// Folds the candidate rows `[first, first + rows)` into every query's
  /// list; `columns[j][r]` is point `first + r`'s value in feature `j`.
  void AddBlock(std::span<const double* const> columns, int first, int rows);

  /// The lists, one per query in query order: sorted ascending, distances
  /// square-rooted.
  std::vector<std::vector<Neighbor>> Finish() &&;

  /// The clamped neighborhood size.
  int k() const { return k_; }

 private:
  int k_;
  std::span<const int> query_ids_;
  std::span<const double> query_values_;
  std::vector<std::vector<Neighbor>> heaps_;  // Max-heaps: top = worst kept.
};

/// Brute-force kNN over all points, restricted to `subspace` (empty =
/// full space). O(n^2 * |subspace|) time, O(n * k) memory. `k` is clamped
/// to n-1. This is the shared substrate of LOF and Fast ABOD; brute force
/// is the right tool here because explainers query thousands of *different*
/// low-dimensional subspaces, so no index amortizes.
KnnTable ComputeKnn(const Dataset& data, const Subspace& subspace, int k);

}  // namespace subex

#endif  // SUBEX_DETECT_KNN_H_
