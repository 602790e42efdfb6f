// Plan memo for the adaptive re-planning loop.
//
// A plan is a pure function of the layer shapes, the options, the world
// size, the step kind and the planning timing.  Within one optimizer only
// the last two change, so the memo holds at most one plan per step kind,
// all built from the timing currently in effect; the owner clears it when
// that timing changes (exact equality — a re-plan point that lands on the
// same timing, as a fixed profile or a clamped trajectory entry does,
// keeps its plans).  Steady-state steps therefore pay zero planning cost
// and execute a bitwise-stable schedule, and a memoized plan is always the
// plan a fresh sched::plan_iteration would build.
//
// Ranks that plan from the same synced timing hit or miss identically, so
// the engine's cross-rank collective-order contract survives memoization.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "sched/plan.hpp"
#include "sched/planner.hpp"

namespace spdkfac::sched {

class PlanCache {
 public:
  /// The step kind: which phases the step plans and the *resolved*
  /// factor-comm mode (the warm-up fallback downgrades kOptimalFuse to
  /// kLayerWise before measurements exist, and those plans must not be
  /// reused once real timings arrive).
  struct Key {
    bool factor_update = true;
    bool inverse_update = true;
    FactorCommMode factor_comm = FactorCommMode::kOptimalFuse;

    bool operator==(const Key&) const = default;
  };

  /// The memoized plan of this step kind, or nullptr.  Counts a hit or a
  /// miss.  Entries are shared immutably, so a hit is a pointer copy (no
  /// O(tasks) plan copy on the steady-state path) and the returned plan
  /// outlives a later clear().
  std::shared_ptr<const IterationPlan> find(const Key& key);

  /// Stores `plan` as this step kind's entry (after find(key) missed) and
  /// returns the stored handle.
  std::shared_ptr<const IterationPlan> insert(const Key& key,
                                              IterationPlan plan);

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t hits() const noexcept { return hits_; }
  std::size_t misses() const noexcept { return misses_; }

  /// Drops every entry (the timing they were built from is gone); the
  /// hit/miss counters keep counting across clears.
  void clear() noexcept { entries_.clear(); }

 private:
  std::vector<std::pair<Key, std::shared_ptr<const IterationPlan>>> entries_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace spdkfac::sched
