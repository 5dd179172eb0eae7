#include "detect/chunked_score.h"

#include <cstddef>
#include <numeric>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "detect/knn.h"
#include "detect/lof.h"

namespace subex {
namespace {

/// Gathers the subspace feature values of `rows` (any order) into a
/// column-major `features.size() x rows.size()` buffer. Consecutive rows of
/// one block share a pin, so sorted rows pin each touched chunk once per
/// feature.
std::vector<double> GatherRows(ChunkedDataset& data,
                               std::span<const FeatureId> features,
                               std::span<const int> rows) {
  std::vector<double> values(features.size() * rows.size());
  for (std::size_t j = 0; j < features.size(); ++j) {
    Pinned<ColumnChunk> chunk;
    std::size_t block = data.num_blocks();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (data.BlockOf(rows[i]) != block) {
        block = data.BlockOf(rows[i]);
        chunk = data.Chunk(features[j], block);
        SUBEX_CHECK_MSG(chunk.valid(), "chunk read failed");
      }
      values[j * rows.size() + i] = (*chunk)[data.LocalRow(rows[i])];
    }
  }
  return values;
}

/// Calls `fn(first_row, rows, columns)` once per row block, in order, with
/// `columns[j]` pointing at the block's pinned chunk of `features[j]`.
template <typename Fn>
void ForEachBlock(ChunkedDataset& data, std::span<const FeatureId> features,
                  Fn&& fn) {
  std::vector<Pinned<ColumnChunk>> chunks(features.size());
  std::vector<const double*> columns(features.size());
  for (std::size_t block = 0; block < data.num_blocks(); ++block) {
    for (std::size_t j = 0; j < features.size(); ++j) {
      chunks[j] = data.Chunk(features[j], block);
      SUBEX_CHECK_MSG(chunks[j].valid(), "chunk read failed");
      columns[j] = chunks[j]->data();
    }
    fn(block * data.rows_per_chunk(), data.RowsInBlock(block),
       std::span<const double* const>(columns));
    for (auto& chunk : chunks) chunk.Release();
  }
}

/// Streaming batched brute-force kNN: the `KnnSearch` kernel of
/// `ComputeKnn`, fed one block of pinned chunks at a time, so every query
/// gets the exact list `ComputeKnn` produces. Memory: |features| pinned
/// chunks + O(|queries| * k) heap state.
std::vector<std::vector<Neighbor>> ComputeKnnChunked(
    ChunkedDataset& data, std::span<const FeatureId> features, int k,
    std::span<const int> queries) {
  const std::vector<double> query_values = GatherRows(data, features, queries);
  KnnSearch search(k, data.num_rows(), queries, query_values);
  ForEachBlock(data, features,
               [&search](std::size_t first, std::size_t rows,
                         std::span<const double* const> columns) {
                 search.AddBlock(columns, static_cast<int>(first),
                                 static_cast<int>(rows));
               });
  return std::move(search).Finish();
}

/// The query ids to score: `queries`, or every point when it is empty.
std::vector<int> QueryIds(const ChunkedDataset& data,
                          std::span<const int> queries) {
  if (!queries.empty()) return {queries.begin(), queries.end()};
  std::vector<int> all(data.num_rows());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

}  // namespace

std::vector<double> ScoreKnnDistanceChunked(
    ChunkedDataset& data, const Subspace& subspace, int k,
    KnnDistance::Aggregation aggregation, std::span<const int> queries) {
  const std::vector<int> ids = QueryIds(data, queries);
  const std::vector<std::vector<Neighbor>> knn = ComputeKnnChunked(
      data, ResolveFeatures(subspace, data.num_cols()), k, ids);
  std::vector<double> scores(ids.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = AggregateKnnDistance(knn[i], aggregation);
  }
  return scores;
}

std::vector<double> ScoreLofChunked(ChunkedDataset& data,
                                    const Subspace& subspace, int k,
                                    std::span<const int> queries) {
  const std::vector<FeatureId> features =
      ResolveFeatures(subspace, data.num_cols());
  const std::vector<int> ids = QueryIds(data, queries);

  // Round 1: kNN lists of the queries. Rounds 2 and 3 extend to the one-
  // and two-hop neighborhoods — lrd(p) reads the k-distance of every
  // neighbor of p, and LOF(p) reads lrd of every neighbor, whose own lrd
  // reads k-distances one hop further.
  std::unordered_map<int, std::vector<Neighbor>> lists;
  std::vector<int> frontier = ids;
  for (int round = 0; round < 3 && !frontier.empty(); ++round) {
    std::vector<std::vector<Neighbor>> batch =
        ComputeKnnChunked(data, features, k, frontier);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      lists.emplace(frontier[i], std::move(batch[i]));
    }
    std::set<int> next;  // Ordered: the next round's query list.
    for (int id : frontier) {
      for (const Neighbor& nb : lists.at(id)) {
        if (!lists.contains(nb.index)) next.insert(nb.index);
      }
    }
    frontier.assign(next.begin(), next.end());
  }

  // The `Lof::Score` formula over the closure, with lrd computed lazily.
  auto list_of = [&lists](int p) -> const std::vector<Neighbor>& {
    const auto it = lists.find(p);
    SUBEX_CHECK_MSG(it != lists.end(), "kNN list missing for point");
    return it->second;
  };
  auto k_distance = [&](int p) { return list_of(p).back().distance; };
  std::unordered_map<int, double> lrd;
  auto lrd_of = [&](int p) -> double {
    const auto cached = lrd.find(p);
    if (cached != lrd.end()) return cached->second;
    const double value = LocalReachabilityDensity(list_of(p), k_distance);
    lrd.emplace(p, value);
    return value;
  };

  std::vector<double> scores(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    scores[i] = LocalOutlierFactor(list_of(ids[i]), lrd_of(ids[i]), lrd_of);
  }
  return scores;
}

std::vector<double> ScoreLodaChunked(ChunkedDataset& data,
                                     const Subspace& subspace,
                                     const Loda::Options& options) {
  const int n = static_cast<int>(data.num_rows());
  SUBEX_CHECK(n >= 3);
  SUBEX_CHECK(options.num_projections >= 1);
  SUBEX_CHECK(options.num_bins >= 0);
  const int bins = LodaBinCount(options, n);
  std::vector<double> neg_log_density_sum(n, 0.0);
  std::vector<int> histogram;
  for (const LodaProjector& projector :
       DrawLodaProjectors(options, subspace, data.num_cols())) {
    // Each pass recomputes the sparse projection block by block, in the
    // accumulation order of `LodaProjector::Project`, so the values are
    // the in-RAM ones on every pass.
    auto for_each_value = [&](auto&& fn) {
      ForEachBlock(data, projector.features,
                   [&](std::size_t first, std::size_t rows,
                       std::span<const double* const> columns) {
                     for (std::size_t r = 0; r < rows; ++r) {
                       double v = 0.0;
                       for (std::size_t j = 0; j < columns.size(); ++j) {
                         v += projector.weights[j] * columns[j][r];
                       }
                       fn(first + r, v);
                     }
                   });
    };
    AddLodaProjector(for_each_value, bins, histogram, neg_log_density_sum);
  }
  for (double& s : neg_log_density_sum) s /= options.num_projections;
  return neg_log_density_sum;
}

}  // namespace subex
