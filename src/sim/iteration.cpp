#include "sim/iteration.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace spdkfac::sim {

AlgorithmConfig AlgorithmConfig::sgd() {
  AlgorithmConfig cfg;
  cfg.name = "SGD";
  cfg.second_order = false;
  return cfg;
}

AlgorithmConfig AlgorithmConfig::kfac() {
  AlgorithmConfig cfg;
  cfg.name = "KFAC";
  cfg.second_order = true;
  cfg.factor_comm = FactorCommMode::kBulk;
  cfg.inverse = InverseMode::kLocalAll;
  return cfg;
}

AlgorithmConfig AlgorithmConfig::dkfac() {
  AlgorithmConfig cfg = kfac();
  cfg.name = "D-KFAC";
  return cfg;
}

AlgorithmConfig AlgorithmConfig::mpd_kfac() {
  AlgorithmConfig cfg = kfac();
  cfg.name = "MPD-KFAC";
  cfg.inverse = InverseMode::kSeqDist;
  return cfg;
}

AlgorithmConfig AlgorithmConfig::spd_kfac() {
  AlgorithmConfig cfg = kfac();
  cfg.name = "SPD-KFAC";
  cfg.factor_comm = FactorCommMode::kOptimalFuse;
  cfg.inverse = InverseMode::kLBP;
  return cfg;
}

namespace {

/// Prices one gang all-reduce of the plan: kRing policy keeps the seed's
/// Eq. (14) pricing; otherwise the calibration's selector prices the
/// algorithm the planner resolved.
class CollectivePricer {
 public:
  CollectivePricer(const perf::ClusterCalibration& cal,
                   const AlgorithmConfig& cfg)
      : cal_(cal), ring_only_(cfg.collective_algo == comm::AllReduceAlgo::kRing) {
    if (!ring_only_) selector_ = cal.effective_selector();
  }

  double price(const sched::Task& task) const {
    // Wire bytes under the task's codec plus the modeled encode/decode
    // compute; kNone has wire_elements == elements and zero codec cost, so
    // lossless plans price exactly as the seed did.
    const double codec = comm::codec_compute_cost(task.codec, task.elements);
    if (ring_only_) return cal_.allreduce.time(task.wire_elements) + codec;
    return selector_.cost(task.algo, task.wire_elements) + codec;
  }

 private:
  const perf::ClusterCalibration& cal_;
  bool ring_only_;
  comm::AlgorithmSelector selector_;
};

}  // namespace

TaskKind breakdown_kind(sched::TaskKind kind) noexcept {
  switch (kind) {
    case sched::TaskKind::kFactorCompute:
      return TaskKind::kFactorComp;
    case sched::TaskKind::kFusedAllReduce:
      return TaskKind::kFactorComm;
    case sched::TaskKind::kGradAllReduce:
      return TaskKind::kGradComm;
    case sched::TaskKind::kInverse:
      return TaskKind::kInverseComp;
    case sched::TaskKind::kBroadcast:  // a CT inverse or a layer's ΔW
      return TaskKind::kInverseComm;
    case sched::TaskKind::kPrecondition:
    case sched::TaskKind::kApply:
      return TaskKind::kOther;
  }
  return TaskKind::kOther;
}

IterationResult simulate_iteration(const models::ModelSpec& model,
                                   std::size_t batch,
                                   const perf::ClusterCalibration& cal,
                                   const AlgorithmConfig& cfg) {
  const int world = cal.world_size;
  const std::size_t L = model.layers.size();
  if (L == 0) throw std::invalid_argument("simulate_iteration: empty model");

  // -------------------------------------------------------------------
  // Build the iteration task-graph with the shared planner — the same
  // schedule the runtime optimizer executes.
  // -------------------------------------------------------------------
  sched::ScheduleOptions opt;
  static_cast<sched::PlanShape&>(opt) = cfg;
  opt.second_order = cfg.second_order;
  opt.inverse = cfg.inverse;
  IterationResult result;
  sched::ScheduleInputs inputs = sched::inputs_from_model(
      model, batch, cal.compute, world, cfg.second_order);
  if (!cfg.profile.empty()) inputs.timing = cfg.profile;
  result.plan = sched::plan_iteration(inputs, opt, sched::costs_from(cal));
  const sched::IterationPlan& plan = result.plan;

  const int S = cfg.compute_streams;
  if (S < 1) {
    throw std::invalid_argument(
        "simulate_iteration: compute_streams must be >= 1");
  }

  EventSim es;
  // Streams per GPU: `compute_streams` compute streams (stream 0 carries
  // the forward/backward kernels; auxiliary streams model the extra pool
  // workers factor/inverse tasks run on), one communication stream for the
  // factor/inverse traffic (the paper's own fusion controller + broadcast
  // path), and one for gradient aggregation (Horovod's communicator — a
  // separate NCCL channel in the paper's implementation, so gradient
  // all-reduces do not queue behind factor all-reduces).
  std::vector<std::vector<int>> comp(world);
  std::vector<int> comm(world), gcomm(world);
  std::vector<std::string> stream_names;
  for (int p = 0; p < world; ++p) {
    comp[p].push_back(es.add_stream("gpu" + std::to_string(p) + ".comp"));
    for (int s = 1; s < S; ++s) {
      comp[p].push_back(es.add_stream("gpu" + std::to_string(p) + ".comp" +
                                      std::to_string(s)));
    }
    comm[p] = es.add_stream("gpu" + std::to_string(p) + ".comm");
    gcomm[p] = es.add_stream("gpu" + std::to_string(p) + ".gradcomm");
  }
  // Shared-fabric stream: concurrent broadcasts from different roots contend
  // here (all-reduces already gang every per-GPU comm stream).
  const int fabric = es.add_stream("fabric");
  for (int p = 0; p < world; ++p) {
    for (int sid : comp[p]) stream_names.push_back(es.stream_name(sid));
    stream_names.push_back(es.stream_name(comm[p]));
    stream_names.push_back(es.stream_name(gcomm[p]));
  }
  stream_names.push_back(es.stream_name(fabric));
  std::vector<int> factor_comm_streams(comm.begin(), comm.end());
  factor_comm_streams.push_back(fabric);
  std::vector<int> grad_comm_streams(gcomm.begin(), gcomm.end());

  // -------------------------------------------------------------------
  // Compute passes on the representative GPU 0 (all workers are symmetric
  // until the inverse phase): A_0 F_1 ... A_{L-1} F_L, then B_L G_L ...
  // B_1 G_1 (Fig. 1b).  Factor-compute tasks come from the plan.  With a
  // single compute stream they serialize into the pass (the classic
  // pricing); with more they round-robin onto the auxiliary streams,
  // depending only on the pass kernel that produced their input — the next
  // layer's kernel no longer waits for the factor build.  A_l's input is
  // the *previous* layer's output (Fig. 1b places A_l ahead of layer l's
  // own kernel, exactly like timing_from_model's a_ready), so its S > 1
  // dependency is the preceding forward task, not the layer's own.
  // -------------------------------------------------------------------
  std::vector<int> es_of(plan.tasks.size(), -1);
  std::vector<int> b_id(L, -1);
  int last_pass = -1;
  std::size_t factor_rr = 0;
  const auto factor_stream = [&]() {
    if (S == 1) return comp[0][0];
    return comp[0][1 + factor_rr++ % static_cast<std::size_t>(S - 1)];
  };
  for (std::size_t l = 0; l < L; ++l) {
    const auto& layer = model.layers[l];
    if (plan.factor_update) {
      const int id = plan.a_compute[l];
      std::vector<int> deps;
      if (S > 1 && last_pass >= 0) deps.push_back(last_pass);
      es_of[id] = es.add_task(TaskKind::kFactorComp,
                              cal.compute.factor_time(layer.factor_a_flops(batch)),
                              factor_stream(), std::move(deps),
                              plan.task(id).label);
    }
    last_pass = es.add_task(TaskKind::kForward,
                            cal.compute.fwd_time(layer.fwd_flops(batch)),
                            comp[0][0], {}, "F" + std::to_string(l + 1));
  }
  for (std::size_t i = 0; i < L; ++i) {
    const std::size_t l = L - 1 - i;
    const auto& layer = model.layers[l];
    b_id[l] = es.add_task(TaskKind::kBackward,
                          cal.compute.bwd_time(layer.bwd_flops(batch)),
                          comp[0][0], {}, "B" + std::to_string(l + 1));
    if (plan.factor_update) {
      const int id = plan.g_compute[i];
      std::vector<int> deps;
      if (S > 1) deps.push_back(b_id[l]);
      es_of[id] = es.add_task(TaskKind::kFactorComp,
                              cal.compute.factor_time(layer.factor_g_flops(batch)),
                              factor_stream(), std::move(deps),
                              plan.task(id).label);
    }
  }

  auto translate_deps = [&es_of](const std::vector<int>& deps) {
    std::vector<int> out;
    out.reserve(deps.size());
    for (int d : deps) {
      if (es_of[d] >= 0) out.push_back(es_of[d]);
    }
    return out;
  };

  // -------------------------------------------------------------------
  // Collectives: gang each all-reduce of the plan, in plan order, priced
  // by the calibration.
  // -------------------------------------------------------------------
  const CollectivePricer pricer(cal, cfg);
  std::vector<int> factor_comm_ids;
  for (int id : plan.comm_order) {
    const sched::Task& task = plan.task(id);
    const double duration = pricer.price(task);
    std::vector<int> deps = translate_deps(task.deps);
    if (task.kind == sched::TaskKind::kGradAllReduce) {
      deps.push_back(b_id[task.first]);  // flush-layer gradient dependency
    }
    const auto& streams = task.kind == sched::TaskKind::kGradAllReduce
                              ? grad_comm_streams
                              : factor_comm_streams;
    es_of[id] =
        es.add_gang_task(breakdown_kind(task.kind), duration, streams, deps,
                         task.label);
    if (task.kind == sched::TaskKind::kFusedAllReduce) {
      factor_comm_ids.push_back(es_of[id]);
      result.factor_comm_busy += duration;
    }
    result.collectives.push_back({task.label, breakdown_kind(task.kind),
                                  task.elements, task.algo, duration, task.id,
                                  -1});
  }

  result.algorithm = cfg.name;

  // -------------------------------------------------------------------
  // Inverse phase: the plan's placement, scheduled per GPU.  Worklists are
  // the owned CTs plus every NCT; LBP keeps its largest-first order and
  // merges NCTs in descending dimension so small replicated inverses fill
  // the tail while broadcasts drain.  Submission is round-robin across
  // GPUs so the fabric stream's FIFO order matches actual readiness.
  // -------------------------------------------------------------------
  if (plan.inverse_update) {
    result.placement = plan.placement;
    std::vector<std::size_t> dims(2 * L);
    for (std::size_t l = 0; l < L; ++l) {
      dims[2 * l] = model.layers[l].dim_a();
      dims[2 * l + 1] = model.layers[l].dim_g();
    }

    // All GPUs hold consistent global factors only after every factor
    // aggregation finished (the barrier of Fig. 1b) — encoded in the
    // plan's inverse-task dependencies.
    const std::vector<int> barrier =
        plan.inverse_tasks.empty()
            ? std::vector<int>{}
            : translate_deps(plan.task(plan.inverse_tasks.front()).deps);

    // Broadcast pricing per plan task (broadcasts always ship lossless).
    // For a CT this is exactly time_dim(d) — the task's elements are the
    // packed triangle time_dim prices.  A tensor of an owned layer has no
    // broadcast of its own.
    const auto bcast_price = [&cal](const sched::Task& task) {
      return cal.bcast_fabric.time_elements(task.elements);
    };
    std::vector<int> tensor_bcast(2 * L, -1);
    for (int id : plan.broadcast_tasks) {
      const sched::Task& task = plan.task(id);
      if (task.family != sched::Family::kGrad) tensor_bcast[task.tensor] = id;
    }

    std::vector<std::vector<std::size_t>> worklists(world);
    for (int p = 0; p < world; ++p) {
      worklists[p] = result.placement.per_gpu[p];
      for (const auto& a : result.placement.assignments) {
        if (a.nct) worklists[p].push_back(a.tensor);
      }
      if (cfg.inverse == InverseMode::kLBP ||
          cfg.inverse == InverseMode::kLayerLBP) {
        std::stable_sort(worklists[p].begin(), worklists[p].end(),
                         [&](std::size_t x, std::size_t y) {
                           return dims[x] > dims[y];
                         });
      }
    }
    std::size_t max_len = 0;
    for (const auto& wl : worklists) max_len = std::max(max_len, wl.size());
    std::vector<int> owner_inverse(2 * L, -1);  // owned layers' inverses
    for (std::size_t r = 0; r < max_len; ++r) {
      for (int p = 0; p < world; ++p) {
        if (r >= worklists[p].size()) continue;
        const std::size_t t = worklists[p][r];
        // Each GPU spreads its inverse worklist over its compute streams
        // (round-robin by worklist row, like the runtime pool's workers).
        const int inv_id = es.add_task(
            TaskKind::kInverseComp, cal.inverse.time(dims[t]),
            comp[p][r % static_cast<std::size_t>(S)], barrier,
            "inv[T" + std::to_string(t) + "]");
        if (result.placement.owned(t / 2)) owner_inverse[t] = inv_id;
        if (tensor_bcast[t] >= 0) {
          es.add_gang_task(TaskKind::kInverseComm,
                           bcast_price(plan.task(tensor_bcast[t])),
                           {comm[p], fabric}, {inv_id},
                           "bcast[T" + std::to_string(t) + "]");
        }
      }
    }
    // An owned layer's ΔW ships from its owner once both inverses are done
    // (the preconditioning itself is not priced, like the update of every
    // other mode).
    for (int id : plan.broadcast_tasks) {
      const sched::Task& task = plan.task(id);
      if (task.family != sched::Family::kGrad) continue;
      const int p = task.rank;
      es.add_gang_task(TaskKind::kInverseComm, bcast_price(task),
                       {comm[p], fabric},
                       {owner_inverse[2 * task.layer],
                        owner_inverse[2 * task.layer + 1]},
                       task.label);
    }

    // Record the broadcasts in the plan's canonical submission order (what
    // the runtime's engine executes), priced identically to the fabric
    // gang tasks above.
    for (int id : plan.broadcast_tasks) {
      const sched::Task& task = plan.task(id);
      result.collectives.push_back({task.label, TaskKind::kInverseComm,
                                    task.elements, task.algo,
                                    bcast_price(task), task.id, task.rank});
    }
  }

  result.schedule = es.run();
  result.total = result.schedule.makespan;
  result.breakdown = compute_breakdown(result.schedule);
  result.stream_names = std::move(stream_names);
  return result;
}

double iteration_time(const models::ModelSpec& model, std::size_t batch,
                      const perf::ClusterCalibration& cal,
                      const AlgorithmConfig& cfg) {
  return simulate_iteration(model, batch, cal, cfg).total;
}

std::vector<IterationResult> simulate_trajectory(
    const models::ModelSpec& model, std::size_t batch,
    const perf::ClusterCalibration& cal, const AlgorithmConfig& cfg,
    std::span<const sched::PassTiming> trajectory) {
  std::vector<IterationResult> results;
  results.reserve(trajectory.size());
  AlgorithmConfig epoch_cfg = cfg;
  for (const sched::PassTiming& timing : trajectory) {
    epoch_cfg.profile = timing;
    results.push_back(simulate_iteration(model, batch, cal, epoch_cfg));
  }
  return results;
}

}  // namespace spdkfac::sim
