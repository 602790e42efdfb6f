#include "ledger.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "sim/event_sim.hpp"

namespace spdkfac::bench {
namespace {

using Interval = std::pair<double, double>;

/// Index of the step whose window holds `t`, or -1.
int step_of(const std::vector<StepMarks>& steps, double t) {
  auto it = std::upper_bound(
      steps.begin(), steps.end(), t,
      [](double v, const StepMarks& m) { return v < m.begin; });
  if (it == steps.begin()) return -1;
  --it;
  return t <= it->end ? static_cast<int>(it - steps.begin()) : -1;
}

/// The update has no sim::Breakdown category, so it lands in kOther (and
/// with it in step.other_ms).
sim::TaskKind compute_kind(sched::TaskKind kind) {
  switch (kind) {
    case sched::TaskKind::kFactorCompute:
      return sim::TaskKind::kFactorComp;
    case sched::TaskKind::kInverse:
      return sim::TaskKind::kInverseComp;
    default:
      return sim::TaskKind::kOther;
  }
}

/// Out-of-plan traffic (plan_task < 0) is the live profile sync: kOther.
sim::TaskKind comm_kind(const sched::IterationPlan& plan, int plan_task) {
  if (plan_task < 0) return sim::TaskKind::kOther;
  switch (plan.task(plan_task).kind) {
    case sched::TaskKind::kFusedAllReduce:
      return sim::TaskKind::kFactorComm;
    case sched::TaskKind::kGradAllReduce:
      return sim::TaskKind::kGradComm;
    case sched::TaskKind::kBroadcast:
      return sim::TaskKind::kInverseComm;
    default:
      return sim::TaskKind::kOther;
  }
}

std::vector<Interval> merged(std::vector<Interval> spans) {
  std::sort(spans.begin(), spans.end());
  std::vector<Interval> out;
  for (const Interval& s : spans) {
    if (!out.empty() && s.first <= out.back().second) {
      out.back().second = std::max(out.back().second, s.second);
    } else {
      out.push_back(s);
    }
  }
  return out;
}

/// Length of `span` covered by the sorted, disjoint `cover`.
double covered(const Interval& span, const std::vector<Interval>& cover) {
  double total = 0.0;
  for (const Interval& c : cover) {
    total += std::max(0.0, std::min(span.second, c.second) -
                               std::max(span.first, c.first));
  }
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::map<std::string, double> ledger_metrics(const TracedPass& pass) {
  const std::size_t n = pass.steps.size();
  if (n == 0) return {};
  std::vector<sim::Schedule> schedules(n);
  // Per step: what computes (the pass windows and the plan's compute tasks)
  // and what communicates, for the hidden-communication share.
  std::vector<std::vector<Interval>> compute(n), comm(n);

  const auto add = [&](std::size_t s, sim::TaskKind kind, double start,
                       double end) {
    const StepMarks& m = pass.steps[s];
    sim::ScheduledTask task;
    task.id = static_cast<int>(schedules[s].tasks.size());
    task.kind = kind;
    task.start = std::clamp(start, m.begin, m.end) - m.begin;
    task.end = std::clamp(end, m.begin, m.end) - m.begin;
    if (task.end > task.start) schedules[s].tasks.push_back(task);
  };

  double forward = 0.0, backward = 0.0, step_call = 0.0, wall = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    const StepMarks& m = pass.steps[s];
    add(s, sim::TaskKind::kForward, m.begin, m.forward_end);
    add(s, sim::TaskKind::kBackward, m.backward_begin, m.backward_end);
    compute[s].emplace_back(m.begin, m.forward_end);
    compute[s].emplace_back(m.backward_begin, m.backward_end);
    forward += m.forward_end - m.begin;
    backward += m.backward_end - m.backward_begin;
    step_call += m.end - m.backward_end;
    wall += m.wall();
  }

  double factor_busy = 0.0, inverse_busy = 0.0, update_busy = 0.0;
  double inverse_modeled = 0.0;
  for (const TaskSpan& span : pass.tasks) {
    const int s = step_of(pass.steps, span.start);
    if (s < 0) continue;
    add(s, compute_kind(span.kind), span.start, span.end);
    compute[s].emplace_back(span.start, span.end);
    const double d = span.end - span.start;
    switch (span.kind) {
      case sched::TaskKind::kFactorCompute:
        factor_busy += d;
        break;
      case sched::TaskKind::kInverse:
        inverse_busy += d;
        inverse_modeled += pass.inverse_model.time(span.dim);
        break;
      default:
        update_busy += d;
        break;
    }
  }

  double factor_comm = 0.0, grad_comm = 0.0, bcast_comm = 0.0;
  double queue_wait = 0.0, allreduce_modeled = 0.0;
  double ops = 0.0, ops_failed = 0.0;
  for (const comm::OpRecord& rec : pass.records) {
    const int s = step_of(pass.steps, rec.submit_s);
    if (s < 0) continue;
    const sched::IterationPlan& plan = *pass.plans[s];
    const sim::TaskKind kind = comm_kind(plan, rec.plan_task);
    add(s, kind, rec.start_s, rec.end_s);
    comm[s].emplace_back(rec.start_s, rec.end_s);
    ops += 1.0;
    if (rec.failed) ops_failed += 1.0;
    queue_wait += rec.start_s - rec.submit_s;
    const double d = rec.duration_s();
    if (kind == sim::TaskKind::kFactorComm) factor_comm += d;
    if (kind == sim::TaskKind::kGradComm) grad_comm += d;
    if (kind == sim::TaskKind::kInverseComm) bcast_comm += d;
    if (kind == sim::TaskKind::kFactorComm ||
        kind == sim::TaskKind::kGradComm) {
      allreduce_modeled +=
          pass.allreduce_model.time(plan.task(rec.plan_task).wire_elements);
    }
  }

  sim::Breakdown sum;
  double other = 0.0, comm_busy = 0.0, hidden = 0.0;
  double wire_bytes = 0.0, raw_bytes = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    schedules[s].makespan = pass.steps[s].wall();
    const sim::Breakdown b = sim::compute_breakdown(schedules[s]);
    sum.ff_bp += b.ff_bp;
    sum.factor_comp += b.factor_comp;
    sum.inverse_comp += b.inverse_comp;
    sum.grad_comm += b.grad_comm;
    sum.factor_comm += b.factor_comm;
    sum.inverse_comm += b.inverse_comm;
    other += pass.steps[s].wall() - b.total();

    const std::vector<Interval> cover = merged(compute[s]);
    for (const Interval& c : comm[s]) {
      comm_busy += c.second - c.first;
      hidden += covered(c, cover);
    }
    for (const sched::Task& task : pass.plans[s]->tasks) {
      if (!task.is_collective()) continue;
      wire_bytes += static_cast<double>(task.wire_elements * sizeof(double));
      raw_bytes += static_cast<double>(task.elements * sizeof(double));
    }
  }

  const double steps = static_cast<double>(n);
  const double ms = 1e3 / steps;  // seconds summed over steps -> ms per step
  return {
      {"step.ff_bp_ms", sum.ff_bp * ms},
      {"step.factor_comp_ms", sum.factor_comp * ms},
      {"step.factor_comm_ms", sum.factor_comm * ms},
      {"step.inverse_comp_ms", sum.inverse_comp * ms},
      {"step.inverse_comm_ms", sum.inverse_comm * ms},
      {"step.grad_comm_ms", sum.grad_comm * ms},
      {"step.other_ms", other * ms},
      {"step.wall_ms", wall * ms},
      {"nn.forward_ms", forward * ms},
      {"nn.backward_ms", backward * ms},
      {"tensor.factor_busy_ms", factor_busy * ms},
      {"tensor.inverse_busy_ms", inverse_busy * ms},
      {"core.update_busy_ms", update_busy * ms},
      {"core.step_call_ms", step_call * ms},
      {"comm.factor_busy_ms", factor_comm * ms},
      {"comm.grad_busy_ms", grad_comm * ms},
      {"comm.bcast_busy_ms", bcast_comm * ms},
      {"comm.queue_wait_ms", queue_wait * ms},
      {"comm.hidden_frac", ratio(hidden, comm_busy)},
      {"comm.ops_per_step", ops / steps},
      {"comm.wire_bytes", wire_bytes / steps},
      {"comm.raw_bytes", raw_bytes / steps},
      {"comm.ops_failed", ops_failed},
      {"perf.inverse_model_ratio", ratio(inverse_busy, inverse_modeled)},
      {"perf.allreduce_model_ratio",
       ratio(factor_comm + grad_comm, allreduce_modeled)},
  };
}

}  // namespace spdkfac::bench
