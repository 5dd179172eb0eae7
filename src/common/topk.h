#ifndef SUBEX_COMMON_TOPK_H_
#define SUBEX_COMMON_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

namespace subex {

/// Indices of the `k` largest values, ordered from largest to smallest.
/// If `k >= values.size()` all indices are returned (fully sorted).
/// Ties are broken by index (smaller index first) so results are
/// deterministic.
std::vector<int> TopKIndices(std::span<const double> values, std::size_t k);

/// Rank of each element under descending order: the largest value gets rank
/// 0. Ties are broken by index.
std::vector<int> RanksDescending(std::span<const double> values);

}  // namespace subex

#endif  // SUBEX_COMMON_TOPK_H_
