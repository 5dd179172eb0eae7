#include "detect/knn.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace subex {
namespace {

// Candidate rows per tile: each query's distances to one tile stay in a
// stack buffer while they are folded into its heap.
constexpr int kTileRows = 1024;

bool Closer(const Neighbor& a, const Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.index < b.index;
}

}  // namespace

KnnSearch::KnnSearch(int k, std::size_t num_points,
                     std::span<const int> query_ids,
                     std::span<const double> query_values)
    : query_ids_(query_ids),
      query_values_(query_values),
      heaps_(query_ids.size()) {
  SUBEX_CHECK_MSG(num_points >= 2, "kNN needs at least two points");
  SUBEX_CHECK(k >= 1);
  k_ = std::min(k, static_cast<int>(num_points) - 1);
  for (std::vector<Neighbor>& heap : heaps_) heap.reserve(k_);
}

void KnnSearch::AddBlock(std::span<const double* const> columns, int first,
                         int rows) {
  const std::size_t num_queries = query_ids_.size();
  SUBEX_CHECK(columns.size() * num_queries == query_values_.size());
  std::array<double, kTileRows> distances{};
  for (int tile = 0; tile < rows; tile += kTileRows) {
    const int count = std::min(kTileRows, rows - tile);
    for (std::size_t i = 0; i < num_queries; ++i) {
      // Squared distances to the tile: one add per feature, in subspace
      // order, for every candidate.
      std::fill_n(distances.begin(), count, 0.0);
      for (std::size_t j = 0; j < columns.size(); ++j) {
        const double query = query_values_[j * num_queries + i];
        const double* column = columns[j] + tile;
        for (int r = 0; r < count; ++r) {
          const double d = query - column[r];
          distances[r] += d * d;
        }
      }
      std::vector<Neighbor>& heap = heaps_[i];
      const int self = query_ids_[i] - first - tile;
      for (int r = 0; r < count; ++r) {
        if (r == self) continue;
        const Neighbor candidate{distances[r], first + tile + r};
        if (static_cast<int>(heap.size()) < k_) {
          heap.push_back(candidate);
          std::push_heap(heap.begin(), heap.end(), Closer);
        } else if (Closer(candidate, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), Closer);
          heap.back() = candidate;
          std::push_heap(heap.begin(), heap.end(), Closer);
        }
      }
    }
  }
}

std::vector<std::vector<Neighbor>> KnnSearch::Finish() && {
  for (std::vector<Neighbor>& heap : heaps_) {
    std::sort_heap(heap.begin(), heap.end(), Closer);
    for (Neighbor& nb : heap) nb.distance = std::sqrt(nb.distance);
  }
  return std::move(heaps_);
}

KnnTable ComputeKnn(const Dataset& data, const Subspace& subspace, int k) {
  const std::size_t n = data.num_points();
  const std::vector<double> values =
      data.GatherColumns(ResolveFeatures(subspace, data.num_features()));
  std::vector<const double*> columns;
  for (std::size_t at = 0; at < values.size(); at += n) {
    columns.push_back(values.data() + at);
  }
  std::vector<int> points(n);
  std::iota(points.begin(), points.end(), 0);

  KnnSearch search(k, n, points, values);
  search.AddBlock(columns, 0, static_cast<int>(n));
  KnnTable table;
  table.k = search.k();
  table.neighbors = std::move(search).Finish();
  return table;
}

}  // namespace subex
