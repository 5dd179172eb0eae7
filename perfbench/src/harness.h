#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing of the benchmark workloads: the strict key/value config
// run.py passes on the command line, latency sinks, process counters,
// and the result object whose JSON form is the benchmark's last output line.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to);
double MsBetween(Clock::time_point from, Clock::time_point to);

/// Workload parameters, one `--set key=value` each. Every getter fails the run
/// on a missing or malformed value, and `CheckAllUsed` fails it on a key
/// the workload never read, so a typo in the config cannot pass silently.
class Config {
 public:
  void Set(const std::string& key, const std::string& value);

  std::string Str(const std::string& key);
  long long Int(const std::string& key);
  double Double(const std::string& key);
  std::vector<long long> IntList(const std::string& key);
  std::vector<std::string> StrList(const std::string& key);

  /// Throws when a key was set but never read.
  void CheckAllUsed() const;

 private:
  const std::string& Raw(const std::string& key);

  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
};

/// Thread-safe collector of latency samples in milliseconds.
class LatencySink {
 public:
  void Add(double ms);
  /// Moves the samples out, leaving the sink empty.
  std::vector<double> Take();

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;
};

/// Nearest-rank quantile, q in [0, 1]; 0 for no samples.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Process CPU seconds (user + system) so far.
double ProcessCpuSeconds();
/// Peak resident set size of the process in MiB.
double PeakRssMb();

/// What one run measured. `metrics` keys are metric names; units are
/// attached when printing.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks that ran and how many of them matched.
  std::uint64_t checks = 0;
  std::uint64_t check_mismatches = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;

  void Attempt(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Check(bool match) {
    ++checks;
    if (!match) ++check_mismatches;
    Attempt(match);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
