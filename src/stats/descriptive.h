#ifndef SUBEX_STATS_DESCRIPTIVE_H_
#define SUBEX_STATS_DESCRIPTIVE_H_

#include <span>
#include <vector>

namespace subex {

/// Arithmetic mean. Returns 0 for an empty span.
double Mean(std::span<const double> values);

/// Unbiased sample variance (divides by n-1). Returns 0 for spans of size
/// 0 or 1.
double SampleVariance(std::span<const double> values);

/// Population variance (divides by n). Returns 0 for an empty span.
double PopulationVariance(std::span<const double> values);

/// Square root of the unbiased sample variance.
double SampleStdDev(std::span<const double> values);

/// Maximum value; requires a non-empty span.
double Max(std::span<const double> values);

/// Median (average of the two middle values for even sizes); requires a
/// non-empty span. Copies the input (does not reorder it).
double Median(std::span<const double> values);

/// Z-score standardization: `(v - mean) / stddev` element-wise, using the
/// population standard deviation, matching the per-subspace score
/// standardization of Eq. (score') in the paper. If the standard deviation is
/// ~0 (all scores equal, so no point stands out) all outputs are 0.
std::vector<double> Standardize(std::span<const double> values);

}  // namespace subex

#endif  // SUBEX_STATS_DESCRIPTIVE_H_
