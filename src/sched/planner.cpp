#include "sched/planner.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "tensor/symmetric.hpp"

namespace spdkfac::sched {

const char* to_string(FactorCommMode mode) noexcept {
  switch (mode) {
    case FactorCommMode::kBulk:
      return "bulk";
    case FactorCommMode::kNaive:
      return "naive";
    case FactorCommMode::kLayerWise:
      return "layer-wise";
    case FactorCommMode::kThresholdFuse:
      return "threshold-fuse";
    case FactorCommMode::kOptimalFuse:
      return "optimal-fuse";
  }
  return "?";
}

const char* to_string(InverseMode mode) noexcept {
  switch (mode) {
    case InverseMode::kLocalAll:
      return "Non-Dist";
    case InverseMode::kSeqDist:
      return "Seq-Dist";
    case InverseMode::kLBP:
      return "LBP";
    case InverseMode::kLayerLBP:
      return "Layer-LBP";
  }
  return "?";
}

ScheduleCosts costs_from(const perf::ClusterCalibration& cal) {
  return ScheduleCosts{cal.allreduce, cal.bcast_fabric, cal.inverse,
                       cal.effective_selector()};
}

namespace {

using tensor::packed_size;

FusionPolicy to_policy(FactorCommMode mode) noexcept {
  switch (mode) {
    case FactorCommMode::kLayerWise:
      return FusionPolicy::kNoFusion;
    case FactorCommMode::kThresholdFuse:
      return FusionPolicy::kThreshold;
    case FactorCommMode::kOptimalFuse:
      return FusionPolicy::kOptimal;
    case FactorCommMode::kBulk:
    case FactorCommMode::kNaive:
      break;  // planned manually, never via plan_fusion
  }
  return FusionPolicy::kSingleBulk;
}

/// Folds a codec into a comm cost model: the per-element (beta) term scales
/// by the wire ratio and absorbs the modeled encode+decode compute, so the
/// fusion DP, the bulk estimates and CT/NCT typing all re-derive their
/// decisions from the *compressed* alpha + beta'*m of Eq. (14).  Fed raw
/// element counts, the adjusted model prices alpha + beta*wire + codec
/// compute exactly (the wire ratio is the codecs' asymptotic ratio).
template <typename CommModel>  // perf::AllReduceModel or BroadcastModel
CommModel with_codec(CommModel base, comm::Codec codec,
                     double topk_ratio) noexcept {
  base.model.beta = base.model.beta * comm::wire_ratio(codec, topk_ratio) +
                    comm::codec_cost_per_element(codec);
  return base;
}

/// Per-plan helper carrying the pieces every task construction needs.
class Builder {
 public:
  Builder(IterationPlan& plan, const ScheduleOptions& options,
          const ScheduleCosts& costs)
      : plan_(plan), options_(options), costs_(costs) {}

  int add(Task task) {
    task.id = static_cast<int>(plan_.tasks.size());
    plan_.tasks.push_back(std::move(task));
    return plan_.tasks.back().id;
  }

  comm::AllReduceAlgo resolve(std::size_t elements) const {
    if (options_.collective_algo == comm::AllReduceAlgo::kRing) {
      return comm::AllReduceAlgo::kRing;
    }
    if (options_.collective_algo == comm::AllReduceAlgo::kAuto) {
      return costs_.selector.choose(elements);
    }
    return options_.collective_algo;
  }

  /// Labels carry the algorithm only when the config departs from the
  /// seed's implicit ring (keeps seed-era golden labels stable).
  std::string decorate(std::string label, comm::AllReduceAlgo algo) const {
    if (options_.collective_algo == comm::AllReduceAlgo::kRing) return label;
    return label + "@" + comm::to_string(algo);
  }

 private:
  IterationPlan& plan_;
  const ScheduleOptions& options_;
  const ScheduleCosts& costs_;
};

}  // namespace

IterationPlan plan_iteration(const ScheduleInputs& inputs,
                             const ScheduleOptions& options,
                             const ScheduleCosts& costs) {
  const std::size_t L = inputs.layers.size();
  if (L == 0) {
    throw std::invalid_argument("plan_iteration: empty layer list");
  }
  if (inputs.world_size < 1) {
    throw std::invalid_argument("plan_iteration: world_size must be >= 1");
  }
  const bool factor_phase = options.second_order && options.factor_update;
  const PassTiming& timing = inputs.timing;
  if (factor_phase &&
      (timing.a_ready.size() != L || timing.g_ready.size() != L)) {
    throw std::invalid_argument(
        "plan_iteration: factor timing must cover every layer");
  }
  if (inputs.world_size > 1 && timing.grad_ready.size() != L) {
    throw std::invalid_argument(
        "plan_iteration: gradient timing must cover every layer");
  }
  if (options.factor_codec == comm::Codec::kTopK) {
    throw std::invalid_argument(
        "plan_iteration: factor_codec cannot be topk (factors are dense; "
        "sparsifying them breaks the Kronecker approximation)");
  }
  if (options.grad_codec == comm::Codec::kTopK &&
      !(options.topk_ratio > 0.0 && options.topk_ratio <= 1.0)) {
    throw std::invalid_argument("plan_iteration: topk_ratio must be in (0, 1]");
  }

  IterationPlan plan;
  plan.world_size = inputs.world_size;
  plan.second_order = options.second_order;
  plan.factor_update = factor_phase;
  plan.inverse_update = options.second_order && options.inverse_update;
  Builder b(plan, options, costs);

  // Packed factor sizes in pass order (G pass runs deepest layer first).
  std::vector<std::size_t> a_sizes(L), g_sizes(L);
  for (std::size_t l = 0; l < L; ++l) {
    a_sizes[l] = inputs.layers[l].a_elements;
    g_sizes[l] = inputs.layers[L - 1 - l].g_elements;
  }
  const std::size_t a_total_all =
      std::accumulate(a_sizes.begin(), a_sizes.end(), std::size_t{0});
  const std::size_t g_total_all =
      std::accumulate(g_sizes.begin(), g_sizes.end(), std::size_t{0});
  std::size_t total_params = 0;
  for (const LayerShape& layer : inputs.layers) {
    total_params += layer.grad_elements;
  }

  // Resolve the option codecs per family against this step's total payload
  // (kAuto stays lossless below the crossover, where the alpha term
  // dominates and shrinking m buys nothing), then fold them into the comm
  // cost models the fusion DP / bulk estimates / CT-NCT typing decide with.
  // Inverse broadcasts ship the same packed-triangle family the factor
  // all-reduces do, so factor_codec governs them too.
  const double topk_ratio = options.topk_ratio;
  const comm::Codec grad_codec = comm::resolve_codec(
      options.grad_codec, total_params, /*gradient=*/true);
  const comm::Codec a_codec = comm::resolve_codec(
      options.factor_codec, a_total_all, /*gradient=*/false);
  const comm::Codec g_codec = comm::resolve_codec(
      options.factor_codec, g_total_all, /*gradient=*/false);
  const comm::Codec bcast_codec = comm::resolve_codec(
      options.factor_codec, a_total_all + g_total_all, /*gradient=*/false);
  const perf::AllReduceModel a_allreduce =
      with_codec(costs.allreduce, a_codec, topk_ratio);
  const perf::AllReduceModel g_allreduce =
      with_codec(costs.allreduce, g_codec, topk_ratio);

  // -------------------------------------------------------------------
  // Factor-computation tasks, in pass order (Fig. 1b: A_0..A_{L-1} during
  // forward, G_L..G_1 during backward).
  // -------------------------------------------------------------------
  if (factor_phase) {
    for (std::size_t l = 0; l < L; ++l) {
      Task t;
      t.kind = TaskKind::kFactorCompute;
      t.family = Family::kA;
      t.layer = l;
      t.pass_index = l;
      t.dim = inputs.layers[l].dim_a;
      t.elements = a_sizes[l];
      t.ready = timing.a_ready[l];
      t.label = "A" + std::to_string(l);
      plan.a_compute.push_back(b.add(std::move(t)));
    }
    for (std::size_t i = 0; i < L; ++i) {
      const std::size_t l = L - 1 - i;
      Task t;
      t.kind = TaskKind::kFactorCompute;
      t.family = Family::kG;
      t.layer = l;
      t.pass_index = i;
      t.dim = inputs.layers[l].dim_g;
      t.elements = g_sizes[i];
      t.ready = timing.g_ready[i];
      t.label = "G" + std::to_string(l + 1);
      plan.g_compute.push_back(b.add(std::move(t)));
    }
  }

  // -------------------------------------------------------------------
  // Collectives (world > 1): WFBP gradient groups plus the factor
  // aggregation of the configured mode, in canonical submission order.
  // -------------------------------------------------------------------
  if (inputs.world_size > 1) {
    // Gradients: accumulate consecutive layers in backward order until the
    // Horovod threshold, flush at the boundary (and always at layer 0).
    // The threshold is a message-size policy, so it applies to the *wire*
    // size — compression packs more layers per flush.
    std::vector<std::size_t> members;  // pack order: deepest member first
    std::size_t acc = 0;
    std::size_t tail = L;  // deepest member of the open group
    for (std::size_t i = 0; i < L; ++i) {
      const std::size_t l = L - 1 - i;
      if (members.empty()) tail = l;
      members.push_back(l);
      acc += inputs.layers[l].grad_elements;
      if (comm::wire_elements(grad_codec, acc, topk_ratio) >=
              options.grad_fusion_threshold ||
          l == 0) {
        Task t;
        t.kind = TaskKind::kGradAllReduce;
        t.family = Family::kGrad;
        t.first = l;
        t.last = tail;
        t.member_layers = members;
        t.elements = acc;
        t.codec = grad_codec;
        t.wire_elements = comm::wire_elements(grad_codec, acc, topk_ratio);
        t.algo = b.resolve(t.wire_elements);
        t.ready = timing.grad_ready[l];
        t.label = b.decorate("grad[" + std::to_string(l) + ".." +
                                 std::to_string(tail) + "]",
                             t.algo);
        plan.grad_comm.push_back(b.add(std::move(t)));
        plan.grad_groups.push_back(std::move(members));
        members.clear();
        acc = 0;
      }
    }

    if (factor_phase) {
      if (options.factor_comm == FactorCommMode::kBulk ||
          options.factor_comm == FactorCommMode::kNaive) {
        const bool naive = options.factor_comm == FactorCommMode::kNaive;
        const std::size_t a_total = a_total_all;
        const std::size_t g_total = g_total_all;

        FusionGroup a_group{0, L - 1, a_total, 0, 0, 0};
        a_group.ready_time = naive ? timing.a_ready[L - 1]
                                   : timing.backward_end;
        a_group.comm_start = a_group.ready_time;
        a_group.comm_end = a_group.comm_start + a_allreduce.time(a_total);
        FusionGroup g_group{0, L - 1, g_total, 0, 0, 0};
        g_group.ready_time = timing.backward_end;
        g_group.comm_start = std::max(g_group.ready_time, a_group.comm_end);
        g_group.comm_end = g_group.comm_start + g_allreduce.time(g_total);
        plan.a_groups = {a_group};
        plan.g_groups = {g_group};

        Task a_task;
        a_task.kind = TaskKind::kFusedAllReduce;
        a_task.family = Family::kA;
        a_task.first = 0;
        a_task.last = L - 1;
        a_task.member_layers.resize(L);
        std::iota(a_task.member_layers.begin(), a_task.member_layers.end(),
                  std::size_t{0});
        a_task.elements = a_total;
        a_task.codec = a_codec;
        a_task.wire_elements = comm::wire_elements(a_codec, a_total);
        a_task.algo = b.resolve(a_task.wire_elements);
        a_task.ready = a_group.ready_time;
        // Naive pipelining ships the A family the moment the forward pass
        // packed its last factor; plain bulk defers both ops to the drain.
        a_task.deferred = !naive;
        a_task.deps = {naive ? plan.a_compute.back() : plan.g_compute.back()};
        a_task.label = b.decorate("A-bulk", a_task.algo);
        plan.a_comm.push_back(b.add(std::move(a_task)));

        Task g_task;
        g_task.kind = TaskKind::kFusedAllReduce;
        g_task.family = Family::kG;
        g_task.first = 0;
        g_task.last = L - 1;
        for (std::size_t i = 0; i < L; ++i) {
          g_task.member_layers.push_back(L - 1 - i);
        }
        g_task.elements = g_total;
        g_task.codec = g_codec;
        g_task.wire_elements = comm::wire_elements(g_codec, g_total);
        g_task.algo = b.resolve(g_task.wire_elements);
        g_task.ready = g_group.ready_time;
        g_task.deferred = true;
        g_task.deps = {plan.g_compute.back()};
        g_task.label = b.decorate("G-bulk", g_task.algo);
        plan.g_comm.push_back(b.add(std::move(g_task)));
      } else {
        // Layer-wise pipelined aggregation: fused groups for the A pass and
        // the G pass, the G stream starting where the A groups drained.
        const FusionPolicy policy = to_policy(options.factor_comm);
        FusionPlanInput a_input{timing.a_ready, a_sizes, 0.0};
        plan.a_groups = plan_fusion(a_input, a_allreduce, policy);
        const double stream_free =
            plan.a_groups.empty() ? 0.0 : plan.a_groups.back().comm_end;
        FusionPlanInput g_input{timing.g_ready, g_sizes, stream_free};
        plan.g_groups = plan_fusion(g_input, g_allreduce, policy);

        for (const FusionGroup& g : plan.a_groups) {
          Task t;
          t.kind = TaskKind::kFusedAllReduce;
          t.family = Family::kA;
          t.first = g.first;
          t.last = g.last;
          for (std::size_t l = g.first; l <= g.last; ++l) {
            t.member_layers.push_back(l);
          }
          t.elements = g.elements;
          t.codec = a_codec;
          t.wire_elements = comm::wire_elements(a_codec, g.elements);
          t.algo = b.resolve(t.wire_elements);
          t.ready = g.ready_time;
          t.deps = {plan.a_compute[g.last]};
          t.label = b.decorate("A[" + std::to_string(g.first) + ".." +
                                   std::to_string(g.last) + "]",
                               t.algo);
          plan.a_comm.push_back(b.add(std::move(t)));
        }
        for (const FusionGroup& g : plan.g_groups) {
          Task t;
          t.kind = TaskKind::kFusedAllReduce;
          t.family = Family::kG;
          t.first = g.first;
          t.last = g.last;
          // Pass position i maps to model layer L-1-i.
          for (std::size_t i = g.first; i <= g.last; ++i) {
            t.member_layers.push_back(L - 1 - i);
          }
          t.elements = g.elements;
          t.codec = g_codec;
          t.wire_elements = comm::wire_elements(g_codec, g.elements);
          t.algo = b.resolve(t.wire_elements);
          t.ready = g.ready_time;
          t.deps = {plan.g_compute[g.last]};
          t.label = b.decorate("G[" + std::to_string(g.first) + ".." +
                                   std::to_string(g.last) + "]",
                               t.algo);
          plan.g_comm.push_back(b.add(std::move(t)));
        }
      }
    }

    // Canonical submission order: readiness along the pass walk; stable, so
    // exact ties keep gradients (inserted first) ahead of factor ops —
    // matching the per-layer event order both consumers execute.
    plan.comm_order = plan.grad_comm;
    plan.comm_order.insert(plan.comm_order.end(), plan.a_comm.begin(),
                           plan.a_comm.end());
    plan.comm_order.insert(plan.comm_order.end(), plan.g_comm.begin(),
                           plan.g_comm.end());
    std::stable_sort(plan.comm_order.begin(), plan.comm_order.end(),
                     [&plan](int x, int y) {
                       return plan.task(x).ready < plan.task(y).ready;
                     });
  }

  // -------------------------------------------------------------------
  // Inverse phase: placement per the configured policy; CT inverses each
  // followed by their broadcast, in deterministic submission order, then
  // the replicated NCT inverses (computed while the broadcasts drain).
  // Layer-LBP places on off-steps too: the owner that inverted a layer's
  // factors keeps preconditioning it until the next inverse step, and the
  // placement is a function of shapes, P and the cost models only, so it
  // cannot move in between.
  // -------------------------------------------------------------------
  const bool layer_mode = options.inverse == InverseMode::kLayerLBP;
  std::vector<std::size_t> dims(2 * L);
  for (std::size_t l = 0; l < L; ++l) {
    dims[2 * l] = inputs.layers[l].dim_a;
    dims[2 * l + 1] = inputs.layers[l].dim_g;
  }
  Placement placement;
  std::vector<std::size_t> ct_order;  // CT inverse submission order
  if (plan.inverse_update || (options.second_order && layer_mode)) {
    // CT/NCT typing under compression: a compressed broadcast is cheaper,
    // so the crossover dimension drops and more tensors become
    // communicated (Algorithm 1 re-derived on beta').  ΔW ships lossless.
    const perf::BroadcastModel bcast =
        with_codec(costs.broadcast, bcast_codec, topk_ratio);
    switch (options.inverse) {
      case InverseMode::kLocalAll:
        placement = nondist_place(dims, inputs.world_size);
        break;
      case InverseMode::kSeqDist:
        placement = seq_place(dims, inputs.world_size);
        break;
      case InverseMode::kLBP:
        placement = lbp_place(dims, inputs.world_size, costs.inverse, bcast,
                              options.balance);
        break;
      case InverseMode::kLayerLBP:
        placement =
            lbp_layer_place(dims, inputs.world_size, costs.inverse, bcast,
                            costs.broadcast, options.balance);
        break;
    }
    // LBP emits largest-dimension first (the order Algorithm 1 assigned),
    // an owned layer's second tensor right behind its first so the owner
    // can precondition early; Seq-Dist uses tensor index order.
    for (std::size_t t = 0; t < dims.size(); ++t) {
      if (!placement.assignments[t].nct) ct_order.push_back(t);
    }
    if (options.inverse == InverseMode::kLBP || layer_mode) {
      std::stable_sort(
          ct_order.begin(), ct_order.end(),
          [&dims](std::size_t x, std::size_t y) { return dims[x] > dims[y]; });
    }
    if (layer_mode) {
      std::vector<std::size_t> grouped;
      std::vector<bool> taken(dims.size(), false);
      for (const std::size_t t : ct_order) {
        if (taken[t]) continue;
        grouped.push_back(t);
        taken[t] = true;
        if (placement.owned(t / 2) && !taken[t ^ 1]) {
          grouped.push_back(t ^ 1);
          taken[t ^ 1] = true;
        }
      }
      ct_order = std::move(grouped);
    }
  }

  // Per tensor: the task a preconditioning reads its inverse from this
  // step (the broadcast of a CT, else the inverse itself); -1 on
  // off-steps, which reuse the inverses of the last inverse step.
  std::vector<int> inverse_source(dims.size(), -1);
  if (plan.inverse_update) {
    plan.placement = placement;
    // Inverses start once every rank holds the aggregated factors: after
    // the last factor collective, or the last factor compute when nothing
    // was communicated (single worker).  Off-steps reuse stale factors and
    // depend on nothing scheduled this iteration.
    std::vector<int> barrier = plan.a_comm;
    barrier.insert(barrier.end(), plan.g_comm.begin(), plan.g_comm.end());
    if (barrier.empty() && factor_phase) {
      barrier.push_back(plan.g_compute.back());
    }

    for (std::size_t t : ct_order) {
      Task inv;
      inv.kind = TaskKind::kInverse;
      inv.tensor = t;
      inv.dim = dims[t];
      inv.elements = packed_size(dims[t]);
      inv.rank = placement.assignments[t].owner;
      inv.deps = barrier;
      inv.label = "inv[T" + std::to_string(t) + "]";
      const int inv_id = b.add(std::move(inv));
      plan.inverse_tasks.push_back(inv_id);
      inverse_source[t] = inv_id;
      if (inputs.world_size > 1 && !placement.owned(t / 2)) {
        Task bc;
        bc.kind = TaskKind::kBroadcast;
        bc.tensor = t;
        bc.dim = dims[t];
        bc.elements = packed_size(dims[t]);
        bc.codec = bcast_codec;
        bc.wire_elements = comm::wire_elements(bcast_codec, bc.elements);
        bc.rank = placement.assignments[t].owner;
        bc.deps = {inv_id};
        bc.label = "bcast[T" + std::to_string(t) + "]";
        const int bc_id = b.add(std::move(bc));
        plan.broadcast_tasks.push_back(bc_id);
        inverse_source[t] = bc_id;
      }
    }
    for (std::size_t t = 0; t < dims.size(); ++t) {
      if (!placement.assignments[t].nct) continue;
      Task inv;
      inv.kind = TaskKind::kInverse;
      inv.tensor = t;
      inv.dim = dims[t];
      inv.elements = packed_size(dims[t]);
      inv.rank = -1;
      inv.deps = barrier;
      inv.label = "inv[T" + std::to_string(t) + "]";
      inverse_source[t] = b.add(std::move(inv));
      plan.inverse_tasks.push_back(inverse_source[t]);
    }
  }

  // -------------------------------------------------------------------
  // Eq. (13), one kPrecondition per layer (on its owner, or on every rank)
  // once its inverses and its gradient group are in, then the owned
  // layers' ΔW broadcasts in the order their owners finish them, then one
  // kApply: ν needs every ΔW.
  // -------------------------------------------------------------------
  if (options.second_order) {
    std::vector<int> grad_group(L, -1);
    for (const int id : plan.grad_comm) {
      for (const std::size_t l : plan.task(id).member_layers) {
        grad_group[l] = id;
      }
    }
    Task apply;
    apply.kind = TaskKind::kApply;
    apply.elements = total_params;
    apply.label = "apply";
    for (std::size_t l = 0; l < L; ++l) {
      Task pc;
      pc.kind = TaskKind::kPrecondition;
      pc.layer = l;
      pc.elements = inputs.layers[l].grad_elements;
      pc.rank = placement.owned(l) ? placement.layer_owner[l] : -1;
      for (const int dep : {inverse_source[2 * l], inverse_source[2 * l + 1],
                            grad_group[l]}) {
        if (dep >= 0) pc.deps.push_back(dep);
      }
      pc.label = "precond[" + std::to_string(l) + "]";
      plan.precondition_tasks.push_back(b.add(std::move(pc)));
      apply.deps.push_back(plan.precondition_tasks.back());
    }
    // ΔW broadcasts in the order their owners should finish them: each
    // owner inverts its CTs in ct_order (an owned layer's pair back to
    // back), then preconditions the layer.  Off-steps keep the order.
    std::vector<double> busy(static_cast<std::size_t>(inputs.world_size),
                             0.0);
    std::vector<std::pair<double, std::size_t>> finish;  // (time, layer)
    std::vector<bool> inverted(dims.size(), false);
    for (const std::size_t t : ct_order) {
      const auto r = static_cast<std::size_t>(placement.assignments[t].owner);
      busy[r] += costs.inverse.time(dims[t]);
      inverted[t] = true;
      const std::size_t l = t / 2;
      if (placement.owned(l) && inverted[t ^ 1]) {  // the pair is done
        busy[r] += precondition_time(costs.inverse, dims[2 * l],
                                     dims[2 * l + 1]);
        finish.emplace_back(busy[r], l);
      }
    }
    std::stable_sort(finish.begin(), finish.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
    for (const auto& [time, l] : finish) {
      Task bc;
      bc.kind = TaskKind::kBroadcast;
      bc.family = Family::kGrad;
      bc.layer = l;
      bc.elements = inputs.layers[l].grad_elements;
      bc.wire_elements = bc.elements;
      bc.rank = placement.layer_owner[l];
      bc.deps = {plan.precondition_tasks[l]};
      bc.label = "bcast[dW" + std::to_string(l) + "]";
      plan.broadcast_tasks.push_back(b.add(std::move(bc)));
      apply.deps.push_back(plan.broadcast_tasks.back());
    }
    plan.apply_task = b.add(std::move(apply));
  }

  return plan;
}

std::vector<LayerShape> shapes_from_model(const models::ModelSpec& model) {
  std::vector<LayerShape> shapes;
  shapes.reserve(model.layers.size());
  for (const models::LayerSpec& layer : model.layers) {
    LayerShape s;
    s.dim_a = layer.dim_a();
    s.dim_g = layer.dim_g();
    s.a_elements = layer.a_elements();
    s.g_elements = layer.g_elements();
    s.grad_elements = layer.params();
    shapes.push_back(s);
  }
  return shapes;
}

PassTiming timing_from_model(const models::ModelSpec& model, std::size_t batch,
                             const perf::ComputeModel& compute,
                             bool second_order) {
  const std::size_t L = model.layers.size();
  PassTiming timing;
  timing.a_ready.assign(L, 0.0);
  timing.g_ready.assign(L, 0.0);
  timing.grad_ready.assign(L, 0.0);
  double clock = 0.0;
  for (std::size_t l = 0; l < L; ++l) {
    const models::LayerSpec& layer = model.layers[l];
    if (second_order) {
      clock += compute.factor_time(layer.factor_a_flops(batch));
      timing.a_ready[l] = clock;
    }
    clock += compute.fwd_time(layer.fwd_flops(batch));
  }
  for (std::size_t i = 0; i < L; ++i) {
    const std::size_t l = L - 1 - i;
    const models::LayerSpec& layer = model.layers[l];
    clock += compute.bwd_time(layer.bwd_flops(batch));
    timing.grad_ready[l] = clock;
    if (second_order) {
      clock += compute.factor_time(layer.factor_g_flops(batch));
      timing.g_ready[i] = clock;
    }
  }
  timing.backward_end = clock;
  return timing;
}

PassTiming timing_from_profile(const perf::ProfileSnapshot& profile) {
  const std::size_t L = profile.layers();
  if (profile.factor_g.size() != L || profile.forward.size() != L ||
      profile.backward.size() != L) {
    throw std::invalid_argument(
        "timing_from_profile: snapshot vectors must all cover every layer");
  }
  // Unsampled factor slots advance the clock by a tiny epsilon so that the
  // per-layer event order (A_l before A_{l+1}, grad_l before G_l) stays a
  // strict total order even on an empty profile; unsampled kernels simply
  // contribute no time.
  constexpr double kEps = 1e-9;
  PassTiming timing;
  timing.a_ready.resize(L);
  timing.g_ready.resize(L);
  timing.grad_ready.resize(L);
  double clock = 0.0;
  for (std::size_t l = 0; l < L; ++l) {
    clock += std::max(profile.factor_a[l], kEps);
    timing.a_ready[l] = clock;
    clock += std::max(profile.forward[l], 0.0);
  }
  for (std::size_t i = 0; i < L; ++i) {
    const std::size_t l = L - 1 - i;
    clock += std::max(profile.backward[l], kEps);
    timing.grad_ready[l] = clock;
    clock += std::max(profile.factor_g[l], kEps);
    timing.g_ready[i] = clock;
  }
  timing.backward_end = clock;
  return timing;
}

ScheduleInputs inputs_from_model(const models::ModelSpec& model,
                                 std::size_t batch,
                                 const perf::ComputeModel& compute,
                                 int world_size, bool second_order) {
  ScheduleInputs inputs;
  inputs.layers = shapes_from_model(model);
  inputs.world_size = world_size;
  inputs.timing = timing_from_model(model, batch, compute, second_order);
  return inputs;
}

}  // namespace spdkfac::sched
