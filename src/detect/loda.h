#ifndef SUBEX_DETECT_LODA_H_
#define SUBEX_DETECT_LODA_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "detect/detector.h"

namespace subex {

/// LODA — Lightweight On-line Detector of Anomalies [Pevny, Machine
/// Learning 2015].
///
/// An ensemble of one-dimensional histograms over sparse random
/// projections: each projector uses ~sqrt(|subspace|) random features with
/// Gaussian weights, the projected values are binned into an equal-width
/// histogram, and a point's outlyingness is the negative mean log density
/// across projectors (higher = more outlying).
///
/// The paper's §6 names LODA as the natural candidate for extending the
/// testbed toward stream processing; this batch implementation slots into
/// the same `Detector` interface, so every explainer can be paired with it
/// out of the box. Deterministic per (seed, subspace), like the forest.
class Loda final : public Detector {
 public:
  struct Options {
    int num_projections = 100;
    /// 0 = automatic (2 * n^(1/3)) bins per histogram.
    int num_bins = 0;
    std::uint64_t seed = 42;
  };

  /// Builds the detector with the given options.
  explicit Loda(const Options& options);
  /// Builds the detector with the defaults of the LODA paper.
  Loda() : Loda(Options{}) {}

  std::string name() const override { return "LODA"; }
  std::vector<double> Score(const Dataset& data,
                            const Subspace& subspace) const override;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

// The pieces of LODA shared by `Loda::Score`, the chunked scorer and the
// incremental windowed scorer, so all three compute the same bits.

/// One sparse Gaussian projector: a row projects to the sum of
/// `weights[j] * row[features[j]]`, accumulated in `j` order.
struct LodaProjector {
  std::vector<FeatureId> features;
  std::vector<double> weights;

  /// Projected value of a row-major row.
  double Project(std::span<const double> row) const {
    double v = 0.0;
    for (std::size_t j = 0; j < weights.size(); ++j) {
      v += weights[j] * row[features[j]];
    }
    return v;
  }
};

/// The projectors LODA uses for `subspace` of a dataset with `num_features`
/// columns: one `Rng` seeded with the seed xor the subspace hash draws, per
/// projector, ~sqrt(dim) features and then their Gaussian weights.
std::vector<LodaProjector> DrawLodaProjectors(const Loda::Options& options,
                                              const Subspace& subspace,
                                              std::size_t num_features);

/// Histogram bins per projector for `n` points: `options.num_bins`, or
/// 2 * n^(1/3) (at least 4) when that is 0.
int LodaBinCount(const Loda::Options& options, int n);

/// Equal-width histogram geometry of one projector over [lo, hi]. The
/// width is floored at 1e-12 so a constant projection still bins.
struct LodaBins {
  LodaBins(double lo, double hi, int count)
      : lo(lo), width(std::max((hi - lo) / count, 1e-12)), count(count) {}

  /// Bin of a projected value; `hi` falls into the last bin.
  int Of(double v) const {
    return std::min(count - 1, static_cast<int>((v - lo) / width));
  }

  /// Laplace-smoothed density of a bin holding `hits` of `n` points, so
  /// empty bins stay finite.
  double Density(int hits, int n) const {
    return (hits + 1.0) / ((n + count) * width);
  }

  double lo;
  double width;
  int count;
};

/// Adds one projector's -log density at every point to
/// `neg_log_density_sum` (one entry per point). `for_each_value(fn)` must
/// call `fn(point, projected_value)` for every point with the same values
/// on each of its three calls: range, histogram, density. `Loda::Score`
/// replays a materialized projection; the chunked scorer recomputes it
/// chunk by chunk.
template <typename ForEachValue>
void AddLodaProjector(ForEachValue&& for_each_value, int bins,
                      std::vector<int>& histogram,
                      std::vector<double>& neg_log_density_sum) {
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  for_each_value([&](std::size_t, double v) {
    if (first) lo = hi = v;
    first = false;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  });
  const LodaBins binning(lo, hi, bins);
  histogram.assign(bins, 0);
  for_each_value([&](std::size_t, double v) { ++histogram[binning.Of(v)]; });
  const int n = static_cast<int>(neg_log_density_sum.size());
  for_each_value([&](std::size_t p, double v) {
    neg_log_density_sum[p] -=
        std::log(binning.Density(histogram[binning.Of(v)], n));
  });
}

}  // namespace subex

#endif  // SUBEX_DETECT_LODA_H_
