#include "sched/fusion.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace spdkfac::sched {

namespace {

void validate(const FusionPlanInput& input) {
  if (input.ready_times.size() != input.sizes.size()) {
    throw std::invalid_argument("plan_fusion: ready_times/sizes mismatch");
  }
  for (std::size_t i = 1; i < input.ready_times.size(); ++i) {
    if (input.ready_times[i] < input.ready_times[i - 1]) {
      throw std::invalid_argument(
          "plan_fusion: ready times must be non-decreasing");
    }
  }
}

/// Finalizes group boundaries into FusionGroups with predicted comm windows.
std::vector<FusionGroup> materialize(
    const FusionPlanInput& input,
    const std::vector<std::pair<std::size_t, std::size_t>>& bounds,
    const perf::AllReduceModel& model) {
  std::vector<FusionGroup> groups;
  groups.reserve(bounds.size());
  double stream_free = input.stream_free_at;
  for (auto [first, last] : bounds) {
    FusionGroup g;
    g.first = first;
    g.last = last;
    for (std::size_t i = first; i <= last; ++i) g.elements += input.sizes[i];
    g.ready_time = input.ready_times[last];
    g.comm_start = std::max(g.ready_time, stream_free);
    g.comm_end = g.comm_start + model.time(g.elements);
    stream_free = g.comm_end;
    groups.push_back(g);
  }
  return groups;
}

}  // namespace

std::vector<FusionGroup> plan_fusion(const FusionPlanInput& input,
                                     const perf::AllReduceModel& model,
                                     FusionPolicy policy,
                                     std::size_t threshold_elements) {
  validate(input);
  const std::size_t n = input.sizes.size();
  std::vector<std::pair<std::size_t, std::size_t>> bounds;
  if (n == 0) return {};

  switch (policy) {
    case FusionPolicy::kNoFusion:
      for (std::size_t i = 0; i < n; ++i) bounds.emplace_back(i, i);
      break;

    case FusionPolicy::kSingleBulk:
      bounds.emplace_back(0, n - 1);
      break;

    case FusionPolicy::kThreshold: {
      // Horovod-style: accumulate consecutive factors until the buffer
      // crosses the threshold, then flush.  The final partial buffer is
      // flushed at the end of the pass.
      std::size_t first = 0;
      std::size_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += input.sizes[i];
        if (acc >= threshold_elements) {
          bounds.emplace_back(first, i);
          first = i + 1;
          acc = 0;
        }
      }
      if (first < n) bounds.emplace_back(first, n - 1);
      break;
    }

    case FusionPolicy::kOptimal: {
      // Optimal fused-group schedule by dynamic programming.  A grouping's
      // drain time obeys the recurrence
      //
      //   E[j] = min over k < j of  max(r_j, E[k]) + alpha + beta * m(k+1..j)
      //
      // (a group can only start once its last member is ready and the
      // stream drained the previous group), with E[0] = stream_free_at.
      // Eq. (15)'s pairwise merge rule is the first-order approximation of
      // this objective; applied greedily it degenerates to a single bulk
      // operation whenever every inter-factor gap is below alpha_ar, which
      // forfeits the early-drain benefit of pipelining.  The DP keeps both
      // effects: it merges away startup latencies *and* flushes groups
      // early enough that most traffic hides under the remaining compute.
      // O(n^2) over at most a few hundred factors, planned once.
      std::vector<double> prefix(n + 1, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        prefix[i + 1] = prefix[i] + static_cast<double>(input.sizes[i]);
      }
      constexpr double kInf = std::numeric_limits<double>::infinity();
      std::vector<double> drain(n + 1, kInf);
      std::vector<std::size_t> split(n + 1, 0);
      drain[0] = input.stream_free_at;
      for (std::size_t j = 1; j <= n; ++j) {
        const double rj = input.ready_times[j - 1];
        // Iterate k downward so ties prefer the smallest last group (flush
        // early), which minimizes the exposed tail at equal drain time.
        for (std::size_t k = j; k-- > 0;) {
          const double elements = prefix[j] - prefix[k];
          const double end =
              std::max(rj, drain[k]) + model.time(0) +
              (model.model.beta * elements);
          if (end < drain[j]) {
            drain[j] = end;
            split[j] = k;
          }
        }
      }
      std::vector<std::pair<std::size_t, std::size_t>> rev;
      for (std::size_t j = n; j > 0; j = split[j]) {
        rev.emplace_back(split[j], j - 1);
      }
      bounds.assign(rev.rbegin(), rev.rend());
      break;
    }
  }

  return materialize(input, bounds, model);
}

}  // namespace spdkfac::sched
