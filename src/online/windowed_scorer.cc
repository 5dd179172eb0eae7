#include "online/windowed_scorer.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace subex {
namespace {

/// Widens [lo, hi] to cover projector `t`'s value in the rows
/// [begin, end).
template <typename RowIt>
void WidenRange(RowIt begin, RowIt end, std::size_t t, double& lo,
                double& hi) {
  for (; begin != end; ++begin) {
    lo = std::min(lo, (*begin)[t]);
    hi = std::max(hi, (*begin)[t]);
  }
}

}  // namespace

struct IncrementalLodaScorer::SubspaceState {
  Subspace subspace;
  /// One batch projector plus its histogram over the window.
  struct Projector {
    LodaProjector draw;
    double lo = 0.0;
    double hi = 0.0;
    std::vector<int> histogram;
  };
  std::vector<Projector> projectors;

  /// Projected values of every window row (oldest first): one value per
  /// projector, computed once at point entry.
  std::deque<std::vector<double>> projected;
  int bins = 0;
  std::uint64_t last_touch = 0;

  /// Every projector's value for one row, in projector order.
  std::vector<double> Project(std::span<const double> row) const {
    std::vector<double> vals;
    vals.reserve(projectors.size());
    for (const auto& proj : projectors) vals.push_back(proj.draw.Project(row));
    return vals;
  }
};

IncrementalLodaScorer::IncrementalLodaScorer(const Loda::Options& options,
                                             std::size_t max_subspace_states)
    : options_(options),
      batch_(options),
      max_subspace_states_(max_subspace_states) {
  SUBEX_CHECK(max_subspace_states >= 1);
}

IncrementalLodaScorer::~IncrementalLodaScorer() = default;

IncrementalLodaScorer::SubspaceState& IncrementalLodaScorer::StateFor(
    const Dataset& window, const Subspace& subspace) {
  for (auto& state : states_) {
    if (state->subspace == subspace) {
      state->last_touch = ++touch_clock_;
      return *state;
    }
  }
  if (states_.size() >= max_subspace_states_) {
    auto lru = std::min_element(states_.begin(), states_.end(),
                                [](const auto& a, const auto& b) {
                                  return a->last_touch < b->last_touch;
                                });
    states_.erase(lru);
  }

  // The batch detector's projectors, so every projected value is the
  // bitwise batch one.
  auto state = std::make_unique<SubspaceState>();
  state->subspace = subspace;
  for (LodaProjector& draw :
       DrawLodaProjectors(options_, subspace, window.num_features())) {
    state->projectors.emplace_back().draw = std::move(draw);
  }
  for (std::size_t p = 0; p < window.num_points(); ++p) {
    state->projected.push_back(state->Project(window.matrix().Row(p)));
  }
  state->bins =
      LodaBinCount(options_, static_cast<int>(window.num_points()));
  for (std::size_t t = 0; t < state->projectors.size(); ++t) {
    RebuildProjector(*state, t);
  }

  state->last_touch = ++touch_clock_;
  states_.push_back(std::move(state));
  return *states_.back();
}

void IncrementalLodaScorer::RebuildProjector(SubspaceState& state,
                                             std::size_t t) {
  auto& proj = state.projectors[t];
  SUBEX_CHECK(!state.projected.empty());
  proj.lo = proj.hi = state.projected.front()[t];
  WidenRange(state.projected.begin(), state.projected.end(), t, proj.lo,
             proj.hi);
  const LodaBins binning(proj.lo, proj.hi, state.bins);
  proj.histogram.assign(static_cast<std::size_t>(state.bins), 0);
  for (const auto& vals : state.projected) {
    ++proj.histogram[binning.Of(vals[t])];
  }
  ++rebuilds_;
}

void IncrementalLodaScorer::AdvanceState(SubspaceState& state,
                                         const WindowDelta& delta) {
  // Point entry: one dot product per projector.
  const Matrix& entered = *delta.entered;
  for (std::size_t r = 0; r < entered.rows(); ++r) {
    state.projected.push_back(state.Project(entered.Row(r)));
  }

  // Point exit: remember the projected values for histogram decrements.
  std::vector<std::vector<double>> popped;
  popped.reserve(delta.num_exited);
  for (std::size_t i = 0; i < delta.num_exited; ++i) {
    SUBEX_CHECK(!state.projected.empty());
    popped.push_back(std::move(state.projected.front()));
    state.projected.pop_front();
  }
  SUBEX_CHECK_MSG(state.projected.size() == delta.window_size,
                  "scorer state diverged from window");

  // When one advance pushes more rows than the window holds, the overflow
  // rows exited already (they sit at the back of `popped`). The entered
  // rows still present are the deque's newest `survivors`; only the first
  // `exited_old` popped rows were ever counted in a histogram.
  const std::size_t survivors = std::min(entered.rows(), delta.window_size);
  const std::size_t exited_old =
      delta.num_exited - (entered.rows() - survivors);
  const auto first_survivor = state.projected.end() - survivors;

  const int old_bins = state.bins;
  state.bins = LodaBinCount(options_, static_cast<int>(delta.window_size));

  for (std::size_t t = 0; t < state.projectors.size(); ++t) {
    auto& proj = state.projectors[t];
    // An exiting extreme may shrink the range: rescan. Otherwise the range
    // can only grow, by a surviving entered value.
    const bool extremes_exited =
        std::any_of(popped.begin(), popped.end(), [&](const auto& vals) {
          return vals[t] <= proj.lo || vals[t] >= proj.hi;
        });
    double lo = proj.lo;
    double hi = proj.hi;
    if (extremes_exited) {
      lo = hi = state.projected.front()[t];
      WidenRange(state.projected.begin(), state.projected.end(), t, lo, hi);
    } else {
      WidenRange(first_survivor, state.projected.end(), t, lo, hi);
    }
    if (state.bins != old_bins || lo != proj.lo || hi != proj.hi ||
        static_cast<int>(proj.histogram.size()) != state.bins) {
      RebuildProjector(state, t);
      continue;
    }
    // Fast path: range and bin count unchanged, so every existing row keeps
    // its bin — add entering rows, subtract exiting ones.
    const LodaBins binning(proj.lo, proj.hi, state.bins);
    for (auto it = first_survivor; it != state.projected.end(); ++it) {
      ++proj.histogram[binning.Of((*it)[t])];
    }
    for (std::size_t i = 0; i < exited_old; ++i) {
      --proj.histogram[binning.Of(popped[i][t])];
    }
  }
}

void IncrementalLodaScorer::OnAdvance(const WindowDelta& delta) {
  SUBEX_CHECK(delta.entered != nullptr);
  for (auto& state : states_) AdvanceState(*state, delta);
}

std::vector<double> IncrementalLodaScorer::Score(const Dataset& window,
                                                 const Subspace& subspace) {
  const int n = static_cast<int>(window.num_points());
  SUBEX_CHECK(n >= 3);
  SubspaceState& state = StateFor(window, subspace);
  SUBEX_CHECK_MSG(state.projected.size() == window.num_points(),
                  "scorer state diverged from window");

  const std::size_t num_proj = state.projectors.size();
  std::vector<LodaBins> binnings;
  for (const auto& proj : state.projectors) {
    binnings.emplace_back(proj.lo, proj.hi, state.bins);
  }
  // Accumulation mirrors the batch path: per point, the per-projector
  // -log(density) terms are summed in projector order, so the float result
  // is bitwise `Loda::Score` on a snapshot of this window.
  std::vector<double> scores(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    const auto& vals = state.projected[static_cast<std::size_t>(p)];
    double sum = 0.0;
    for (std::size_t t = 0; t < num_proj; ++t) {
      const LodaBins& binning = binnings[t];
      sum -= std::log(binning.Density(
          state.projectors[t].histogram[binning.Of(vals[t])], n));
    }
    scores[static_cast<std::size_t>(p)] = sum / options_.num_projections;
  }
  return scores;
}

}  // namespace subex
