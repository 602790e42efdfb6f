// Live trace of a real run (the simulator's schedules are the *predicted*
// timelines; this records what actually executed).  Compute intervals
// arrive from DistKfacOptimizer's task listener, communication intervals
// from the async engine's OpRecords — both on the engine clock, so they
// stitch into one consistent timeline.
//
// Events are sim::ScheduledTasks on the two streams of one simulated GPU:
// resources {kComputeStream} or {kCommStream}, kind the breakdown category
// (sim::breakdown_kind).  Rendering unfolds each stream greedily onto the
// fewest non-overlapping lanes ("compute-0", "compute-1", ..., then
// "comm-0", ...) and draws the packed sim::Schedule with
// sim::to_chrome_trace, so concurrent work is visibly parallel and the live
// and predicted traces share one renderer and one color key.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "sim/event_sim.hpp"

namespace spdkfac::ctl {

class TraceRecorder {
 public:
  static constexpr int kComputeStream = 0;
  static constexpr int kCommStream = 1;

  /// Records one interval; `task.resources` must be exactly one of the two
  /// streams (std::invalid_argument otherwise).  Thread-safe (compute tasks
  /// report from pool threads).
  void add(sim::ScheduledTask task);

  /// The recorded run, packed onto lanes, as sim::to_chrome_trace renders
  /// it.  Timestamps are microseconds at full double precision, so
  /// hours-long runs keep distinct ticks.
  std::string to_chrome_trace(const std::string& process_name) const;

 private:
  /// Retention cap: a long-running daemon must not grow without bound.
  /// When the buffer exceeds the cap the oldest quarter is dropped — the
  /// trace command then shows the most recent window of the run.
  static constexpr std::size_t kMaxEvents = 65536;

  mutable std::mutex mu_;
  std::vector<sim::ScheduledTask> events_;
};

}  // namespace spdkfac::ctl
