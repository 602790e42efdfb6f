#include "ctl/trace_recorder.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "sim/trace.hpp"

namespace spdkfac::ctl {

void TraceRecorder::add(sim::ScheduledTask task) {
  if (task.resources.size() != 1 || (task.resources[0] != kComputeStream &&
                                     task.resources[0] != kCommStream)) {
    throw std::invalid_argument("TraceRecorder: not a compute/comm stream");
  }
  std::lock_guard lock(mu_);
  if (events_.size() >= kMaxEvents) {
    events_.erase(events_.begin(),
                  events_.begin() + static_cast<std::ptrdiff_t>(
                                        kMaxEvents / 4));
  }
  events_.push_back(std::move(task));
}

std::string TraceRecorder::to_chrome_trace(
    const std::string& process_name) const {
  sim::Schedule packed;
  {
    std::lock_guard lock(mu_);
    packed.tasks = events_;
  }
  std::stable_sort(packed.tasks.begin(), packed.tasks.end(),
                   [](const sim::ScheduledTask& a,
                      const sim::ScheduledTask& b) {
                     return a.start < b.start;
                   });

  // Greedy lane packing per stream: place each interval on the first lane
  // whose previous occupant already ended, else open a new lane.
  std::vector<double> lane_ends[2];
  std::vector<int> stream_of;
  for (sim::ScheduledTask& t : packed.tasks) {
    std::vector<double>& ends = lane_ends[t.resources[0]];
    std::size_t lane = 0;
    while (lane < ends.size() && ends[lane] > t.start) ++lane;
    if (lane == ends.size()) ends.push_back(t.end);
    ends[lane] = std::max(ends[lane], t.end);
    stream_of.push_back(t.resources[0]);
    t.resources[0] = static_cast<int>(lane);
  }

  // Comm lanes are numbered after every compute lane, so the two groups
  // render as visually distinct blocks.
  const std::size_t n_compute =
      std::max<std::size_t>(lane_ends[kComputeStream].size(), 1);
  const std::size_t n_comm =
      std::max<std::size_t>(lane_ends[kCommStream].size(), 1);
  for (std::size_t i = 0; i < packed.tasks.size(); ++i) {
    if (stream_of[i] == kCommStream) {
      packed.tasks[i].resources[0] += static_cast<int>(n_compute);
    }
  }
  std::vector<std::string> lanes;
  for (std::size_t l = 0; l < n_compute; ++l) {
    lanes.push_back("compute-" + std::to_string(l));
  }
  for (std::size_t l = 0; l < n_comm; ++l) {
    lanes.push_back("comm-" + std::to_string(l));
  }
  return sim::to_chrome_trace(packed, lanes, process_name);
}

}  // namespace spdkfac::ctl
