#include "common/topk.h"

namespace subex {
namespace {

std::vector<int> Iota(std::size_t n) {
  std::vector<int> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

}  // namespace

std::vector<int> TopKIndices(std::span<const double> values, std::size_t k) {
  std::vector<int> idx = Iota(values.size());
  const std::size_t kk = std::min(k, values.size());
  auto greater = [&](int a, int b) {
    if (values[a] != values[b]) return values[a] > values[b];
    return a < b;
  };
  std::partial_sort(idx.begin(), idx.begin() + kk, idx.end(), greater);
  idx.resize(kk);
  return idx;
}

std::vector<int> RanksDescending(std::span<const double> values) {
  const std::vector<int> order = TopKIndices(values, values.size());
  std::vector<int> ranks(values.size());
  for (std::size_t r = 0; r < order.size(); ++r) ranks[order[r]] = r;
  return ranks;
}

}  // namespace subex
