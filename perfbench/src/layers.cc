#include "layers.h"

#include <chrono>

namespace perfbench {
namespace {

/// Per-thread stack of open spans; each entry accumulates the busy time of
/// the spans nested directly under it.
thread_local std::vector<std::uint64_t> t_child_ns;

std::uint64_t NsBetween(Clock::time_point from, Clock::time_point to) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

}  // namespace

LayerSlot::LayerSlot(std::string slot_name)
    : name(std::move(slot_name)), layer(name.substr(0, name.find('.'))) {}

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::SetInjection(const std::string& layer, double fraction) {
  inject_layer_ = layer;
  inject_fraction_ = fraction;
}

LayerSlot* Tracer::Slot(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<LayerSlot>& slot = slots_[name];
  if (slot == nullptr) slot = std::make_unique<LayerSlot>(name);
  return slot.get();
}

Tracer::Totals Tracer::Sum(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Totals totals;
  for (const auto& [name, slot] : slots_) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    totals.calls += slot->calls.load();
    totals.busy_s += static_cast<double>(slot->busy_ns.load()) * 1e-9;
    totals.self_s += static_cast<double>(slot->self_ns.load()) * 1e-9;
    totals.root_s += static_cast<double>(slot->root_ns.load()) * 1e-9;
  }
  return totals;
}

void Tracer::ResetCounters() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, slot] : slots_) {
    slot->calls = 0;
    slot->busy_ns = 0;
    slot->self_ns = 0;
    slot->root_ns = 0;
  }
}

Span::Span(LayerSlot* slot, LatencySink* sink)
    : slot_(slot), sink_(sink), start_(Clock::now()) {
  t_child_ns.push_back(0);
}

Span::~Span() {
  Clock::time_point end = Clock::now();
  const std::uint64_t child_ns = t_child_ns.back();
  t_child_ns.pop_back();
  std::uint64_t busy_ns = NsBetween(start_, end);
  std::uint64_t self_ns = busy_ns > child_ns ? busy_ns - child_ns : 0;
  const Tracer& tracer = Tracer::Global();
  if (tracer.Injects(*slot_)) {
    // Simulate a slower layer: burn CPU for a share of the wrapped call's
    // time, inside the span so enclosing layers see it as child time.
    const auto spin = std::chrono::nanoseconds(static_cast<std::int64_t>(
        static_cast<double>(busy_ns) * tracer.inject_fraction()));
    const Clock::time_point until = end + spin;
    while ((end = Clock::now()) < until) {
    }
    busy_ns = NsBetween(start_, end);
    self_ns = busy_ns > child_ns ? busy_ns - child_ns : 0;
  }
  const bool root = t_child_ns.empty();
  if (!root) t_child_ns.back() += busy_ns;
  if (sink_ != nullptr) sink_->Add(static_cast<double>(busy_ns) * 1e-6);
  if (!tracer.aggregate()) return;
  slot_->calls.fetch_add(1, std::memory_order_relaxed);
  slot_->busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
  slot_->self_ns.fetch_add(self_ns, std::memory_order_relaxed);
  if (root) slot_->root_ns.fetch_add(busy_ns, std::memory_order_relaxed);
}

std::vector<double> TimedDetector::Score(
    const subex::Dataset& data, const subex::Subspace& subspace) const {
  Span span(slot_, sink_);
  return inner_.Score(data, subspace);
}

subex::RankedSubspaces TimedPointExplainer::Explain(
    const subex::Dataset& data, const subex::Detector& detector, int point,
    int target_dim) const {
  Span span(slot_, sink_);
  const TimedDetector scoring(detector, scoring_slot_);
  return inner_.Explain(data, scoring, point, target_dim);
}

subex::RankedSubspaces TimedSummarizer::Summarize(
    const subex::Dataset& data, const subex::Detector& detector,
    const std::vector<int>& points, int target_dim) const {
  Span span(slot_, sink_);
  const TimedDetector scoring(detector, scoring_slot_);
  return inner_.Summarize(data, scoring, points, target_dim);
}

}  // namespace perfbench
