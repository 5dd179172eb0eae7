#include "fault/fault.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "obs/registry.h"

namespace subex {
namespace {

constexpr const char* kPointNames[kNumFaultPoints] = {
    "socket_read",    "socket_write", "socket_connect", "socket_accept",
    "columnar_pread", "columnar_mmap", "cache_admit",    "mem_reserve",
    "wal_append",     "wal_sync",
};

/// SplitMix64 — a full-period 64-bit mixer. Each (seed, point, evaluation
/// index) triple maps to one uniform deviate, so firing decisions are a
/// pure function of the seed and are independent of thread interleaving.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double UnitUniform(std::uint64_t seed, FaultPoint point, std::uint64_t n) {
  const std::uint64_t h =
      Mix64(seed ^ Mix64(static_cast<std::uint64_t>(point) + 1) ^ Mix64(n));
  // Top 53 bits -> [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* FaultPointName(FaultPoint point) {
  const auto index = static_cast<std::size_t>(point);
  SUBEX_CHECK(index < kNumFaultPoints);
  return kPointNames[index];
}

bool ParseFaultPoint(const std::string& name, FaultPoint* out) {
  for (std::size_t i = 0; i < kNumFaultPoints; ++i) {
    if (name == kPointNames[i]) {
      *out = static_cast<FaultPoint>(i);
      return true;
    }
  }
  return false;
}

bool ParseFaultAction(const std::string& name, FaultAction* out) {
  if (name == "fail") {
    *out = FaultAction::kFail;
    return true;
  }
  if (name == "eintr") {
    *out = FaultAction::kEintr;
    return true;
  }
  if (name == "short") {
    *out = FaultAction::kShort;
    return true;
  }
  return false;
}

std::string FaultStats::ToJson() const {
  JsonObject points_json;
  for (std::size_t i = 0; i < kNumFaultPoints; ++i) {
    const FaultPointStats& p = points[i];
    if (!p.armed && p.evaluations == 0 && p.injected == 0) continue;
    JsonObject entry;
    entry.Add("armed", p.armed)
        .Add("evaluations", p.evaluations)
        .Add("injected", p.injected);
    points_json.AddRaw(kPointNames[i], entry.Build());
  }
  bool any_armed = false;
  for (const FaultPointStats& p : points) any_armed = any_armed || p.armed;
  JsonObject out;
  out.Add("armed", any_armed)
      .Add("evaluations", evaluations)
      .Add("injected", injected)
      .AddRaw("points", points_json.Build());
  return out.Build();
}

bool ParseFaultSpec(const std::string& spec,
                    std::vector<FaultSpecEntry>* entries, std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  // Every piece of `text` between `sep`s, empty ones included.
  const auto split = [](const std::string& text, char sep) {
    std::vector<std::string> pieces;
    std::size_t begin = 0;
    for (std::size_t end = text.find(sep); end != std::string::npos;
         begin = end + 1, end = text.find(sep, begin)) {
      pieces.push_back(text.substr(begin, end - begin));
    }
    pieces.push_back(text.substr(begin));
    return pieces;
  };
  std::vector<FaultSpecEntry> parsed;
  for (const std::string& entry : split(spec, ';')) {
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return fail("fault spec entry missing '=': " + entry);
    }
    FaultSpecEntry& out = parsed.emplace_back();
    if (!ParseFaultPoint(entry.substr(0, eq), &out.point)) {
      return fail("unknown fault point: " + entry.substr(0, eq));
    }
    // probability[:after=N][:limit=N][:action=...]
    const std::vector<std::string> fields = split(entry.substr(eq + 1), ':');
    char* parse_end = nullptr;
    out.rule.probability = std::strtod(fields[0].c_str(), &parse_end);
    if (fields[0].empty() || *parse_end != '\0' ||
        out.rule.probability < 0.0 || out.rule.probability > 1.0) {
      return fail("bad fault probability: " + fields[0]);
    }
    for (std::size_t f = 1; f < fields.size(); ++f) {
      const std::string& field = fields[f];
      const std::size_t field_eq = field.find('=');
      if (field_eq == std::string::npos) {
        return fail("bad fault rule field: " + field);
      }
      const std::string key = field.substr(0, field_eq);
      const std::string value = field.substr(field_eq + 1);
      if (key == "after" || key == "limit") {
        (key == "after" ? out.rule.after : out.rule.limit) =
            std::strtoull(value.c_str(), &parse_end, 10);
        if (value.empty() || *parse_end != '\0') {
          return fail("bad fault rule count: " + field);
        }
      } else if (key == "action") {
        if (!ParseFaultAction(value, &out.rule.action)) {
          return fail("bad fault action: " + value);
        }
      } else {
        return fail("unknown fault rule field: " + key);
      }
    }
  }
  if (entries != nullptr) *entries = std::move(parsed);
  return true;
}

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

FaultRegistry::FaultRegistry() = default;

void FaultRegistry::Arm(FaultPoint point, const FaultRule& rule) {
  SUBEX_CHECK(point < FaultPoint::kPointCount);
  SUBEX_CHECK(rule.probability >= 0.0 && rule.probability <= 1.0);
  PointState& state = points_[static_cast<std::size_t>(point)];
  state.probability.store(rule.probability, std::memory_order_relaxed);
  state.after.store(rule.after, std::memory_order_relaxed);
  state.limit.store(rule.limit, std::memory_order_relaxed);
  state.action.store(static_cast<std::uint8_t>(rule.action),
                     std::memory_order_relaxed);
  state.evaluations.store(0, std::memory_order_relaxed);
  state.injected.store(0, std::memory_order_relaxed);
  // Release so an evaluator that observes `armed` also observes the rule.
  state.armed.store(true, std::memory_order_release);
  any_armed_.store(true, std::memory_order_release);
}

void FaultRegistry::Disarm(FaultPoint point) {
  SUBEX_CHECK(point < FaultPoint::kPointCount);
  points_[static_cast<std::size_t>(point)].armed.store(
      false, std::memory_order_release);
  RecomputeArmedFlag();
}

void FaultRegistry::DisarmAll() {
  for (PointState& state : points_) {
    state.armed.store(false, std::memory_order_release);
    state.evaluations.store(0, std::memory_order_relaxed);
    state.injected.store(0, std::memory_order_relaxed);
  }
  any_armed_.store(false, std::memory_order_release);
  total_evaluations_.store(0, std::memory_order_relaxed);
  total_injected_.store(0, std::memory_order_relaxed);
}

void FaultRegistry::SetSeed(std::uint64_t seed) {
  seed_.store(seed, std::memory_order_relaxed);
}

void FaultRegistry::RecomputeArmedFlag() {
  bool any = false;
  for (const PointState& state : points_) {
    any = any || state.armed.load(std::memory_order_relaxed);
  }
  any_armed_.store(any, std::memory_order_release);
}

bool FaultRegistry::EvaluateSlow(FaultPoint point, FaultAction* action) {
  PointState& state = points_[static_cast<std::size_t>(point)];
  if (!state.armed.load(std::memory_order_acquire)) return false;
  total_evaluations_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t n =
      state.evaluations.fetch_add(1, std::memory_order_relaxed);
  if (n < state.after.load(std::memory_order_relaxed)) return false;
  const double p = state.probability.load(std::memory_order_relaxed);
  if (p < 1.0 &&
      UnitUniform(seed_.load(std::memory_order_relaxed), point, n) >= p) {
    return false;
  }
  const std::uint64_t limit = state.limit.load(std::memory_order_relaxed);
  if (limit > 0) {
    // Claim one of the `limit` injections or decline; CAS keeps the cap
    // exact under concurrent evaluations.
    std::uint64_t injected = state.injected.load(std::memory_order_relaxed);
    do {
      if (injected >= limit) return false;
    } while (!state.injected.compare_exchange_weak(
        injected, injected + 1, std::memory_order_relaxed));
  } else {
    state.injected.fetch_add(1, std::memory_order_relaxed);
  }
  total_injected_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Global().GetCounter("fault.injected").Increment();
  if (action != nullptr) {
    *action = static_cast<FaultAction>(
        state.action.load(std::memory_order_relaxed));
  }
  return true;
}

bool FaultRegistry::ConfigureFromSpec(const std::string& spec,
                                      std::string* error) {
  std::vector<FaultSpecEntry> entries;
  if (!ParseFaultSpec(spec, &entries, error)) return false;
  for (const FaultSpecEntry& entry : entries) Arm(entry.point, entry.rule);
  return true;
}

void FaultRegistry::ConfigureFromEnv() {
  if (const char* seed_env = std::getenv("SUBEX_FAULT_SEED")) {
    char* parse_end = nullptr;
    const unsigned long long seed = std::strtoull(seed_env, &parse_end, 10);
    SUBEX_CHECK_MSG(parse_end != nullptr && *parse_end == '\0',
                    "bad SUBEX_FAULT_SEED");
    SetSeed(seed);
  }
  if (const char* spec = std::getenv("SUBEX_FAULT_SPEC")) {
    std::string error;
    if (!ConfigureFromSpec(spec, &error)) {
      std::fprintf(stderr, "SUBEX_FAULT_SPEC: %s\n", error.c_str());
      std::abort();
    }
  }
}

FaultStats FaultRegistry::stats() const {
  FaultStats out;
  out.evaluations = total_evaluations_.load(std::memory_order_relaxed);
  out.injected = total_injected_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumFaultPoints; ++i) {
    const PointState& state = points_[i];
    out.points[i].armed = state.armed.load(std::memory_order_relaxed);
    out.points[i].evaluations =
        state.evaluations.load(std::memory_order_relaxed);
    out.points[i].injected = state.injected.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace subex
