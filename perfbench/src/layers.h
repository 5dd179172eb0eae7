#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Layer timing from outside the library: decorators around the public
// Detector / PointExplainer / Summarizer interfaces open a span per call.
// Spans nest per thread, so a layer's self time is its span minus the spans
// of the layers it called on the same thread. Decorators forward name() and
// ReturnsStandardizedScores(), so cache keys and scores are unchanged.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "explain/point_explainer.h"
#include "explain/summarizer.h"
#include "harness.h"

namespace perfbench {

/// Counters of one named span site, e.g. "detect.LOF".
struct LayerSlot {
  explicit LayerSlot(std::string slot_name);

  const std::string name;
  /// Module prefix of `name` ("detect"), the unit of fault injection.
  const std::string layer;
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> self_ns{0};
  /// Busy time of spans opened with no enclosing span on their thread.
  std::atomic<std::uint64_t> root_ns{0};
};

/// Process-wide registry of span sites plus the run's tracing mode.
class Tracer {
 public:
  static Tracer& Global();

  /// Per-layer counting, on for the traced half of a run.
  void SetAggregate(bool on) { aggregate_.store(on); }
  /// Makes every span of `layer` spin for an extra `fraction` of the
  /// wrapped call's time: the benchmark's sensitivity check. Set before any
  /// span opens.
  void SetInjection(const std::string& layer, double fraction);

  /// The slot named `name`, created on first use; the pointer stays valid.
  LayerSlot* Slot(const std::string& name);

  struct Totals {
    std::uint64_t calls = 0;
    double busy_s = 0.0;
    double self_s = 0.0;
    double root_s = 0.0;
  };
  /// Sum over every slot whose name starts with `prefix`.
  Totals Sum(const std::string& prefix) const;
  void ResetCounters();

  bool aggregate() const { return aggregate_.load(std::memory_order_relaxed); }
  bool Injects(const LayerSlot& slot) const {
    return !inject_layer_.empty() && slot.layer == inject_layer_;
  }
  double inject_fraction() const { return inject_fraction_; }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<LayerSlot>> slots_;
  std::atomic<bool> aggregate_{false};
  std::string inject_layer_;
  double inject_fraction_ = 0.0;
};

/// RAII span on the calling thread. Always timestamps and nests (latency
/// sinks and injection need that); only counts when the tracer aggregates.
class Span {
 public:
  explicit Span(LayerSlot* slot, LatencySink* sink = nullptr);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerSlot* slot_;
  LatencySink* sink_;
  Clock::time_point start_;
};

/// Detector decorator: one span per Score call.
class TimedDetector final : public subex::Detector {
 public:
  TimedDetector(const subex::Detector& inner, LayerSlot* slot,
                LatencySink* sink = nullptr)
      : inner_(inner), slot_(slot), sink_(sink) {}

  std::string name() const override { return inner_.name(); }
  std::vector<double> Score(const subex::Dataset& data,
                            const subex::Subspace& subspace) const override;
  bool ReturnsStandardizedScores() const override {
    return inner_.ReturnsStandardizedScores();
  }

 private:
  const subex::Detector& inner_;
  LayerSlot* slot_;
  LatencySink* sink_;
};

/// PointExplainer decorator: one span per Explain call. The detector the
/// explainer is handed is wrapped in a span of `scoring_slot`, so the
/// scoring layer below the explainer (the service, or the online dataset)
/// is timed on its own and explain self time excludes it.
class TimedPointExplainer final : public subex::PointExplainer {
 public:
  TimedPointExplainer(const subex::PointExplainer& inner, LayerSlot* slot,
                      LayerSlot* scoring_slot, LatencySink* sink = nullptr)
      : inner_(inner), slot_(slot), scoring_slot_(scoring_slot), sink_(sink) {}

  std::string name() const override { return inner_.name(); }
  subex::RankedSubspaces Explain(const subex::Dataset& data,
                                 const subex::Detector& detector, int point,
                                 int target_dim) const override;

 private:
  const subex::PointExplainer& inner_;
  LayerSlot* slot_;
  LayerSlot* scoring_slot_;
  LatencySink* sink_;
};

/// Summarizer decorator: one span per Summarize call, scoring timed as in
/// TimedPointExplainer.
class TimedSummarizer final : public subex::Summarizer {
 public:
  TimedSummarizer(const subex::Summarizer& inner, LayerSlot* slot,
                  LayerSlot* scoring_slot, LatencySink* sink = nullptr)
      : inner_(inner), slot_(slot), scoring_slot_(scoring_slot), sink_(sink) {}

  std::string name() const override { return inner_.name(); }
  subex::RankedSubspaces Summarize(const subex::Dataset& data,
                                   const subex::Detector& detector,
                                   const std::vector<int>& points,
                                   int target_dim) const override;

 private:
  const subex::Summarizer& inner_;
  LayerSlot* slot_;
  LayerSlot* scoring_slot_;
  LatencySink* sink_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
