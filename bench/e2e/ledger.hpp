// Step ledger: turns one traced training pass into per-layer metrics.
//
// Inputs are what the public API exposes, all on the comm engine's clock:
// the benchmark's own timestamps around model.forward / model.backward /
// optimizer.step(), the compute-task intervals the optimizer's task listener
// reports, and the engine's collective records.  Each step's intervals are
// clipped to the step window and laid out as a sim::Schedule, and
// sim::compute_breakdown attributes the step's wall time — so measured and
// simulator-priced breakdowns share one priority rule and one gap rule.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/async_engine.hpp"
#include "perf/models.hpp"
#include "sched/plan.hpp"

namespace spdkfac::bench {

/// Engine-clock timestamps of one forward -> backward -> step() sequence.
struct StepMarks {
  double begin = 0.0;           ///< before model.forward
  double forward_end = 0.0;     ///< after model.forward
  double backward_begin = 0.0;  ///< before model.backward (after the loss)
  double backward_end = 0.0;    ///< after model.backward
  double end = 0.0;             ///< after optimizer.step()

  double wall() const noexcept { return end - begin; }
};

/// One executed compute task of the plan, as the task listener saw it.
struct TaskSpan {
  sched::TaskKind kind = sched::TaskKind::kUpdate;
  std::size_t dim = 0;
  double start = 0.0;
  double end = 0.0;
};

struct TracedPass {
  std::vector<StepMarks> steps;
  /// The plan each step executed (records name their task by id into it).
  std::vector<std::shared_ptr<const sched::IterationPlan>> plans;
  std::vector<TaskSpan> tasks;
  std::vector<comm::OpRecord> records;
  /// The planner's cost models, which the measured durations are held to.
  perf::AllReduceModel allreduce_model;
  perf::InverseModel inverse_model;
};

/// Per-step breakdown, busy times, comm counters and cost-model ratios of
/// `pass`, keyed by metric name (times in ms per step).
std::map<std::string, double> ledger_metrics(const TracedPass& pass);

}  // namespace spdkfac::bench
