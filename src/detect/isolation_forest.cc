#include "detect/isolation_forest.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/rng.h"

namespace subex {
namespace {

// One node of an isolation tree, stored in build order: a split node's left
// child is the next node. A leaf (split -inf, right = itself) keeps every
// point that reaches it, so each point takes exactly height_limit steps; its
// path_length is its depth plus c(size) of the subsample points it holds.
struct Node {
  double split;
  double path_length;
  int feature;  // Column of the gathered block.
  int right;
};

// State shared by the trees of one Score call: the subspace's columns
// gathered into one column-major block, c(size) per leaf size, and the
// nodes of the current tree.
struct Forest {
  std::size_t n = 0;
  int height_limit = 0;
  std::vector<double> columns;
  std::vector<double> leaf_c;
  std::vector<Node> nodes;

  /// Splits the sample rows [begin, end) in place until isolation or the
  /// height limit, appending nodes depth-first, left subtree first.
  void Grow(int* begin, int* end, int height, Rng& rng) {
    const int index = static_cast<int>(nodes.size());
    nodes.push_back({-std::numeric_limits<double>::infinity(),
                     height + leaf_c[end - begin], 0, index});
    // Pick a feature that still varies within the sample; give up after a
    // few tries (all-constant region -> leaf).
    for (int attempt = 0;
         attempt < 8 && height < height_limit && end - begin > 1; ++attempt) {
      const std::size_t f = rng.UniformIndex(columns.size() / n);
      const double* column = columns.data() + f * n;
      double lo = column[*begin];
      double hi = lo;
      for (const int* p = begin; p != end; ++p) {
        lo = std::min(lo, column[*p]);
        hi = std::max(hi, column[*p]);
      }
      if (hi - lo < 1e-12) continue;
      const double split = rng.Uniform(lo, hi);
      int* mid = std::partition(begin, end,
                                [&](int p) { return column[p] < split; });
      if (mid == begin || mid == end) continue;
      nodes[index].feature = static_cast<int>(f);
      nodes[index].split = split;
      Grow(begin, mid, height + 1, rng);
      nodes[index].right = static_cast<int>(nodes.size());
      Grow(mid, end, height + 1, rng);
      return;
    }
  }

  /// Adds every point's path length in the current tree to `sum`. Points
  /// descend eight at a time in lockstep, so their dependent loads overlap.
  void AddPathLengths(std::vector<double>& sum) const {
    constexpr std::size_t kLanes = 8;
    for (std::size_t first = 0; first < n; first += kLanes) {
      const std::size_t lanes = std::min(kLanes, n - first);
      int node[kLanes] = {};
      for (int step = 0; step < height_limit; ++step) {
        for (std::size_t i = 0; i < lanes; ++i) {
          const Node& at = nodes[node[i]];
          const int left = columns[at.feature * n + first + i] < at.split;
          node[i] = at.right + left * (node[i] + 1 - at.right);
        }
      }
      for (std::size_t i = 0; i < lanes; ++i) {
        sum[first + i] += nodes[node[i]].path_length;
      }
    }
  }
};

}  // namespace

IsolationForest::IsolationForest(const Options& options) : options_(options) {
  SUBEX_CHECK(options.num_trees >= 1);
  SUBEX_CHECK(options.subsample_size >= 2);
  SUBEX_CHECK(options.num_repetitions >= 1);
}

double IsolationForest::AveragePathLength(int n) {
  if (n <= 1) return 0.0;
  if (n == 2) return 1.0;
  const double h = std::log(static_cast<double>(n - 1)) + 0.5772156649015329;
  return 2.0 * h - 2.0 * static_cast<double>(n - 1) / static_cast<double>(n);
}

std::vector<double> IsolationForest::Score(const Dataset& data,
                                           const Subspace& subspace) const {
  const int n = static_cast<int>(data.num_points());
  SUBEX_CHECK(n >= 2);

  const int psi = std::min(options_.subsample_size, n);
  Forest forest;
  forest.n = n;
  forest.height_limit =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(psi))));
  forest.columns =
      data.GatherColumns(ResolveFeatures(subspace, data.num_features()));
  for (int size = 0; size <= psi; ++size) {
    forest.leaf_c.push_back(AveragePathLength(size));
  }
  const double c_psi = forest.leaf_c[psi];

  // Deterministic per-(seed, subspace) randomness so Score is pure.
  const std::uint64_t subspace_salt = SubspaceHash()(subspace);
  std::vector<double> mean_scores(n, 0.0);

  for (int rep = 0; rep < options_.num_repetitions; ++rep) {
    Rng rng(options_.seed ^ subspace_salt ^
            (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(rep + 1)));
    std::vector<double> path_sum(n, 0.0);
    for (int t = 0; t < options_.num_trees; ++t) {
      std::vector<int> sample = rng.SampleWithoutReplacement(n, psi);
      forest.nodes.clear();
      forest.Grow(sample.data(), sample.data() + psi, 0, rng);
      forest.AddPathLengths(path_sum);
    }
    for (int p = 0; p < n; ++p) {
      const double mean_path = path_sum[p] / options_.num_trees;
      mean_scores[p] += std::pow(2.0, -mean_path / c_psi);
    }
  }
  for (double& s : mean_scores) s /= options_.num_repetitions;
  return mean_scores;
}

}  // namespace subex
