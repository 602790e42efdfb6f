#include "sched/plan_cache.hpp"

#include <algorithm>

namespace spdkfac::sched {

std::shared_ptr<const IterationPlan> PlanCache::find(const Key& key) {
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [&key](const auto& entry) { return entry.first == key; });
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

std::shared_ptr<const IterationPlan> PlanCache::insert(const Key& key,
                                                       IterationPlan plan) {
  return entries_
      .emplace_back(key, std::make_shared<const IterationPlan>(std::move(plan)))
      .second;
}

}  // namespace spdkfac::sched
