#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void Config::Set(const std::string& key, const std::string& value) {
  if (!values_.emplace(key, value).second) {
    throw std::runtime_error("config key given twice: " + key);
  }
}

const std::string& Config::Raw(const std::string& key) {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::runtime_error("missing config key: " + key);
  }
  used_.insert(key);
  return it->second;
}

std::string Config::Str(const std::string& key) { return Raw(key); }

namespace {

long long ParseInt(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0') {
    throw std::runtime_error("config key " + key + ": not an integer: '" +
                             text + "'");
  }
  return value;
}

double ParseDouble(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || !std::isfinite(value)) {
    throw std::runtime_error("config key " + key + ": not a number: '" +
                             text + "'");
  }
  return value;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string part;
  while (std::getline(stream, part, ',')) parts.push_back(part);
  return parts;
}

}  // namespace

long long Config::Int(const std::string& key) {
  return ParseInt(key, Raw(key));
}

double Config::Double(const std::string& key) {
  return ParseDouble(key, Raw(key));
}

std::vector<long long> Config::IntList(const std::string& key) {
  std::vector<long long> out;
  for (const std::string& part : SplitCommas(Raw(key))) {
    out.push_back(ParseInt(key, part));
  }
  if (out.empty()) throw std::runtime_error("config key " + key + ": empty");
  return out;
}

std::vector<std::string> Config::StrList(const std::string& key) {
  std::vector<std::string> out = SplitCommas(Raw(key));
  if (out.empty()) throw std::runtime_error("config key " + key + ": empty");
  return out;
}

void Config::CheckAllUsed() const {
  for (const auto& [key, value] : values_) {
    if (used_.count(key) == 0) {
      throw std::runtime_error("unknown config key for this workload: " +
                               key);
    }
  }
}

void LatencySink::Add(double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back(ms);
}

std::vector<double> LatencySink::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(samples_, {});
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace perfbench
