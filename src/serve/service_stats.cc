#include "serve/service_stats.h"

#include <cstdio>

#include "common/json.h"

namespace subex {

double ServiceStatsSnapshot::HitRate() const {
  const std::uint64_t total = Requests();
  if (total == 0) return 0.0;
  return static_cast<double>(hits + dedup_joins) / static_cast<double>(total);
}

std::string ServiceStatsSnapshot::ToString() const {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "%llu hits / %llu misses / %llu joins (hit rate %.1f%%), "
                "%llu evictions, compute %.2fs",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(dedup_joins),
                HitRate() * 100.0,
                static_cast<unsigned long long>(evictions), ComputeSeconds());
  return buffer;
}

std::string ServiceStatsSnapshot::ToJson() const {
  return JsonObject()
      .Add("hits", hits)
      .Add("misses", misses)
      .Add("dedup_joins", dedup_joins)
      .Add("evictions", evictions)
      .Add("requests", Requests())
      .Add("hit_rate", HitRate())
      .Add("compute_seconds", ComputeSeconds())
      .Build();
}

ServiceStatsSnapshot ServiceStats::snapshot() const {
  ServiceStatsSnapshot s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.dedup_joins = dedup_joins_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.compute_ns = compute_ns_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace subex
