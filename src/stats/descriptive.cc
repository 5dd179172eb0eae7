#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace subex {

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

double SumSquaredDeviation(std::span<const double> values, double mean) {
  double ss = 0.0;
  for (double v : values) {
    const double d = v - mean;
    ss += d * d;
  }
  return ss;
}

}  // namespace

double SampleVariance(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  return SumSquaredDeviation(values, Mean(values)) /
         static_cast<double>(values.size() - 1);
}

double PopulationVariance(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return SumSquaredDeviation(values, Mean(values)) /
         static_cast<double>(values.size());
}

double SampleStdDev(std::span<const double> values) {
  return std::sqrt(SampleVariance(values));
}

double Max(std::span<const double> values) {
  SUBEX_CHECK(!values.empty());
  return *std::max_element(values.begin(), values.end());
}

double Median(std::span<const double> values) {
  SUBEX_CHECK(!values.empty());
  std::vector<double> copy(values.begin(), values.end());
  const std::size_t mid = copy.size() / 2;
  std::nth_element(copy.begin(), copy.begin() + mid, copy.end());
  if (copy.size() % 2 == 1) return copy[mid];
  const double upper = copy[mid];
  const double lower = *std::max_element(copy.begin(), copy.begin() + mid);
  return 0.5 * (lower + upper);
}

std::vector<double> Standardize(std::span<const double> values) {
  std::vector<double> out(values.size(), 0.0);
  if (values.empty()) return out;
  const double mean = Mean(values);
  const double sd = std::sqrt(PopulationVariance(values));
  if (sd < 1e-12) return out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = (values[i] - mean) / sd;
  }
  return out;
}

}  // namespace subex
