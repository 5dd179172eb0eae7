#include "common/rng.h"

namespace subex {

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  SUBEX_CHECK(k >= 0 && k <= n);
  // Floyd's algorithm: k draws, each checked for membership in an n-entry
  // bitmap in O(1); reading the bitmap out yields the values ascending.
  std::vector<bool> taken(n, false);
  for (int j = n - k; j < n; ++j) {
    const int t = UniformInt(0, j);
    taken[taken[t] ? j : t] = true;
  }
  std::vector<int> chosen;
  chosen.reserve(k);
  for (int v = 0; v < n; ++v) {
    if (taken[v]) chosen.push_back(v);
  }
  return chosen;
}

}  // namespace subex
