#include "loadgen.h"

#include <algorithm>
#include <thread>

namespace perfbench {

void RunOpenLoop(
    std::size_t count, double rate, Clock::time_point start,
    const std::function<void(std::size_t, Clock::time_point)>& op) {
  for (std::size_t i = 0; i < count; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
    std::this_thread::sleep_until(due);
    op(i, due);
  }
}

void WindowedSamples::Merge(const WindowedSamples& other,
                            std::size_t offset) {
  for (const auto& [index, ms] : other.samples_) {
    samples_.emplace_back(index + offset, ms);
  }
}

std::vector<double> WindowedSamples::Ordered() const {
  std::vector<std::pair<std::size_t, double>> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> values;
  values.reserve(sorted.size());
  for (const auto& sample : sorted) values.push_back(sample.second);
  return values;
}

double WindowedSamples::Quantile(double q) const {
  const std::vector<double> values = Ordered();
  const auto beyond =
      static_cast<std::size_t>(static_cast<double>(values.size()) * (1 - q));
  const std::size_t windows = std::clamp<std::size_t>(beyond / 10, 1, 9);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(
                                            values.size() * w / windows);
    const auto last = values.begin() + static_cast<std::ptrdiff_t>(
                                           values.size() * (w + 1) / windows);
    if (first != last) {
      per_window.push_back(perfbench::Quantile({first, last}, q));
    }
  }
  return Median(per_window);
}

}  // namespace perfbench
