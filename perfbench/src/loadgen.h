#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Open-loop request generation: operations are due on a fixed schedule
// whatever the replies do, and each is timed from when it was due, so a
// stall is charged to every request queued behind it.

#include <functional>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Runs operations 0..count-1 on the calling thread, operation i due at
/// `start + i / rate`. `op(i, due)` performs operation i; it is called as
/// soon as the previous one has returned and operation i is due.
void RunOpenLoop(
    std::size_t count, double rate, Clock::time_point start,
    const std::function<void(std::size_t, Clock::time_point)>& op);

/// Latency samples of an open-loop schedule, tagged with their operation
/// index. A quantile is the median over consecutive stretches of the
/// schedule of the per-stretch quantile, with as many stretches (up to 9)
/// as leave ten samples beyond the quantile in each. A burst of outside
/// noise confined to a few stretches, such as a neighbour on the host
/// taking the CPU, then does not move the figure.
class WindowedSamples {
 public:
  /// Not thread-safe: keep one per thread and `Merge`.
  void Add(std::size_t op_index, double ms) {
    samples_.emplace_back(op_index, ms);
  }
  /// Adds `other`'s samples, their indices shifted by `offset` (the length
  /// of the schedules merged before it).
  void Merge(const WindowedSamples& other, std::size_t offset = 0);

  double Quantile(double q) const;
  std::size_t size() const { return samples_.size(); }

 private:
  /// Sample values in schedule order.
  std::vector<double> Ordered() const;

  std::vector<std::pair<std::size_t, double>> samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
