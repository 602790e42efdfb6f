#include "sched/serialize.hpp"

#include <cstddef>
#include <string>
#include <vector>

#include "comm/collectives.hpp"

namespace spdkfac::sched {

namespace {

template <typename T>
void append_list(std::string& out, const char* name,
                 const std::vector<T>& values) {
  out += name;
  out += "=[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
}

}  // namespace

std::string plan_to_text(const IterationPlan& plan) {
  std::string out;
  out += "plan world=" + std::to_string(plan.world_size) +
         " second_order=" + std::to_string(plan.second_order) +
         " factor_update=" + std::to_string(plan.factor_update) +
         " inverse_update=" + std::to_string(plan.inverse_update) +
         " tasks=" + std::to_string(plan.tasks.size()) + "\n";

  for (const Task& t : plan.tasks) {
    out += "task " + std::to_string(t.id);
    out += " kind=";
    out += to_string(t.kind);
    if (t.family != Family::kNone) {
      out += " family=";
      out += to_string(t.family);
    }
    switch (t.kind) {
      case TaskKind::kFactorCompute:
        out += " layer=" + std::to_string(t.layer) +
               " pass=" + std::to_string(t.pass_index) +
               " dim=" + std::to_string(t.dim);
        break;
      case TaskKind::kFusedAllReduce:
      case TaskKind::kGradAllReduce:
        out += " first=" + std::to_string(t.first) +
               " last=" + std::to_string(t.last) + " ";
        append_list(out, "members", t.member_layers);
        out += " algo=";
        out += comm::to_string(t.algo);
        out += " deferred=" + std::to_string(t.deferred);
        break;
      case TaskKind::kBroadcast:
        if (t.family == Family::kGrad) {  // a layer's ΔW
          out += " layer=" + std::to_string(t.layer) +
                 " rank=" + std::to_string(t.rank);
          break;
        }
        [[fallthrough]];
      case TaskKind::kInverse:
        out += " tensor=" + std::to_string(t.tensor) +
               " dim=" + std::to_string(t.dim) +
               " rank=" + std::to_string(t.rank);
        break;
      case TaskKind::kPrecondition:
        out += " layer=" + std::to_string(t.layer) +
               " rank=" + std::to_string(t.rank);
        break;
      case TaskKind::kApply:
        break;
    }
    out += " elems=" + std::to_string(t.elements);
    // Codec annotation only on compressed collectives: lossless plans stay
    // byte-identical to the seed-era golden schedules.
    if (t.codec != comm::Codec::kNone) {
      out += " codec=";
      out += comm::to_string(t.codec);
      out += " wire=" + std::to_string(t.wire_elements);
    }
    out += " ";
    append_list(out, "deps", t.deps);
    out += " label=" + t.label + "\n";
  }

  const auto groups = [&out](const char* name,
                             const std::vector<FusionGroup>& gs) {
    out += name;
    for (const FusionGroup& g : gs) {
      out += " [" + std::to_string(g.first) + ".." + std::to_string(g.last) +
             ":" + std::to_string(g.elements) + "]";
    }
    out += "\n";
  };
  groups("a_groups", plan.a_groups);
  groups("g_groups", plan.g_groups);
  out += "grad_groups";
  for (const auto& members : plan.grad_groups) {
    out += " [";
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(members[i]);
    }
    out += ']';
  }
  out += "\n";

  append_list(out, "a_comm", plan.a_comm);
  out += ' ';
  append_list(out, "g_comm", plan.g_comm);
  out += ' ';
  append_list(out, "grad_comm", plan.grad_comm);
  out += "\n";
  append_list(out, "comm_order", plan.comm_order);
  out += ' ';
  append_list(out, "inverse_tasks", plan.inverse_tasks);
  out += ' ';
  append_list(out, "broadcast_tasks", plan.broadcast_tasks);
  out += ' ';
  append_list(out, "precondition_tasks", plan.precondition_tasks);
  out += " apply=" + std::to_string(plan.apply_task) + "\n";

  out += "placement";
  for (std::size_t t = 0; t < plan.placement.assignments.size(); ++t) {
    const auto& a = plan.placement.assignments[t];
    out += " T" + std::to_string(t) + ":owner=" + std::to_string(a.owner) +
           ",nct=" + std::to_string(a.nct) + ",dim=" + std::to_string(a.dim);
  }
  out += "\n";
  // Layer owners exist only under Layer-LBP, so the tensor-granular plans'
  // text ends where it always did.
  if (!plan.placement.layer_owner.empty()) {
    out += "layer_owners";
    for (const int owner : plan.placement.layer_owner) {
      out += ' ' + std::to_string(owner);
    }
    out += "\n";
  }
  return out;
}

}  // namespace spdkfac::sched
