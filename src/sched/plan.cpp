#include "sched/plan.hpp"

namespace spdkfac::sched {

const char* to_string(TaskKind kind) noexcept {
  switch (kind) {
    case TaskKind::kFactorCompute:
      return "FactorCompute";
    case TaskKind::kFusedAllReduce:
      return "FusedAllReduce";
    case TaskKind::kGradAllReduce:
      return "GradAllReduce";
    case TaskKind::kInverse:
      return "Inverse";
    case TaskKind::kBroadcast:
      return "Broadcast";
    case TaskKind::kPrecondition:
      return "Precondition";
    case TaskKind::kApply:
      return "Apply";
  }
  return "?";
}

const char* to_string(Family family) noexcept {
  switch (family) {
    case Family::kNone:
      return "-";
    case Family::kA:
      return "A";
    case Family::kG:
      return "G";
    case Family::kGrad:
      return "grad";
  }
  return "?";
}

std::vector<int> IterationPlan::collective_order() const {
  std::vector<int> order = comm_order;
  order.insert(order.end(), broadcast_tasks.begin(), broadcast_tasks.end());
  return order;
}

namespace {

std::size_t collective_bytes(const IterationPlan& plan,
                             std::optional<TaskKind> kind, bool wire) {
  std::size_t bytes = 0;
  for (const Task& task : plan.tasks) {
    if (!task.is_collective() || (kind && task.kind != *kind)) continue;
    bytes += (wire ? task.wire_elements : task.elements) * sizeof(double);
  }
  return bytes;
}

}  // namespace

std::size_t IterationPlan::wire_bytes(
    std::optional<TaskKind> kind) const noexcept {
  return collective_bytes(*this, kind, /*wire=*/true);
}

std::size_t IterationPlan::raw_bytes(
    std::optional<TaskKind> kind) const noexcept {
  return collective_bytes(*this, kind, /*wire=*/false);
}

}  // namespace spdkfac::sched
