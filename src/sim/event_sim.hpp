// Discrete-event simulator of computation/communication task DAGs.
//
// This is the substitute for the paper's 64-GPU testbed: every GPU
// contributes a *compute stream* and a *communication stream* (mirroring a
// CUDA stream plus the Horovod background thread), tasks carry durations
// priced by the perf models, and edges encode the precedence constraints of
// Fig. 1.  Streams execute their tasks in submission order (FIFO, exactly
// like CUDA streams and the async engine's op queue); a task starts when its
// dependencies have finished AND all its streams have retired every task
// submitted to them earlier.
//
// Gang tasks spanning several streams model collectives: an all-reduce
// occupies the communication stream of every participant for its duration.
// A broadcast, following the paper's cost model (Eq. 21 and Fig. 5), is
// charged to the root's communication stream only — receivers get the data
// via RDMA without occupying their own send queue.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace spdkfac::sim {

/// Task categories matching the paper's breakdown legend (Figs. 2 and 9).
enum class TaskKind {
  kForward,
  kBackward,
  kFactorComp,
  kInverseComp,
  kGradComm,
  kFactorComm,
  kInverseComm,
  kOther,
};

const char* to_string(TaskKind kind) noexcept;

struct ScheduledTask {
  int id = -1;
  TaskKind kind = TaskKind::kOther;
  double start = 0.0;
  double end = 0.0;
  std::string label;
  std::vector<int> resources;
};

struct Schedule {
  std::vector<ScheduledTask> tasks;  // indexed by task id
  double makespan = 0.0;
};

/// Per-category time attribution (Figs. 2, 9, 10, 12).
///
/// Computed by sweeping the cluster-wide schedule: each instant of the
/// iteration is attributed to the highest-priority *active* category, with
/// computation ahead of communication.  Communication running concurrently
/// with computation is therefore invisible ("hidden"), matching the paper's
/// non-overlapped accounting, and the six categories always sum to the
/// iteration makespan.
struct Breakdown {
  double ff_bp = 0.0;
  double factor_comp = 0.0;
  double inverse_comp = 0.0;
  double grad_comm = 0.0;
  double factor_comm = 0.0;
  double inverse_comm = 0.0;

  double total() const noexcept {
    return ff_bp + factor_comp + inverse_comp + grad_comm + factor_comm +
           inverse_comm;
  }
};

class EventSim {
 public:
  /// Registers a stream (compute or communication); returns its id.
  int add_stream(std::string name);

  /// Adds a task bound to one stream.  `deps` are task ids that must finish
  /// before this task may start.  Returns the task id.
  int add_task(TaskKind kind, double duration, int stream,
               std::vector<int> deps = {}, std::string label = {});

  /// Adds a gang task occupying several streams simultaneously (e.g. an
  /// all-reduce across every participant's communication stream).
  int add_gang_task(TaskKind kind, double duration, std::vector<int> streams,
                    std::vector<int> deps = {}, std::string label = {});

  const std::string& stream_name(int id) const { return stream_names_[id]; }

  /// Computes start/end times for every task.  Deterministic; throws
  /// std::logic_error if the dependency graph is cyclic or references
  /// unknown tasks.
  Schedule run() const;

 private:
  struct TaskDef {
    TaskKind kind;
    double duration;
    std::vector<int> streams;
    std::vector<int> deps;
    std::string label;
  };

  std::vector<std::string> stream_names_;
  std::vector<std::vector<int>> stream_queues_;  // task ids per stream
  std::vector<TaskDef> tasks_;
};

/// Attribution sweep described on Breakdown.
Breakdown compute_breakdown(const Schedule& schedule);

/// Renders an ASCII timeline of the schedule (one row per stream) — used by
/// bench_timeline to reproduce the structure of Fig. 1.
std::string render_timeline(const Schedule& schedule,
                            const std::vector<std::string>& stream_names,
                            std::size_t width = 100);

}  // namespace spdkfac::sim
