// SchedulePlanner unit coverage: plan structure, canonical collective
// ordering, fusion edge cases (single layer, zero-element factor, skipped
// factor steps), and input validation.
#include "sched/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "comm/topology.hpp"
#include "models/model_spec.hpp"

namespace spdkfac::sched {
namespace {

ScheduleCosts flat_costs(int world) {
  ScheduleCosts costs;
  costs.allreduce = perf::AllReduceModel{{2.0e-5, 1.0e-9}};
  costs.broadcast = perf::BroadcastModel{{1.0e-5, 5.0e-10}};
  costs.inverse = perf::InverseModel::cubic(2.0e-6, 5.0e-10);
  costs.selector = comm::AlgorithmSelector(comm::Topology::flat(world));
  return costs;
}

/// A small MLP-shaped input with strictly increasing pass timing.
ScheduleInputs mlp_inputs(int world) {
  const std::size_t widths[] = {6, 10, 8, 3};
  const models::ModelSpec spec = models::mlp_spec(widths);
  return inputs_from_model(spec, 8, perf::ComputeModel{}, world);
}

TEST(Planner, SpdPlanCoversEveryLayerAndTensor) {
  const ScheduleInputs in = mlp_inputs(4);
  ScheduleOptions opt;  // defaults: SPD (optimal fuse + LBP)
  const IterationPlan plan = plan_iteration(in, opt, flat_costs(4));
  const std::size_t L = in.layers.size();

  ASSERT_EQ(plan.a_compute.size(), L);
  ASSERT_EQ(plan.g_compute.size(), L);
  // Fusion groups partition [0, L-1] in both passes.
  ASSERT_FALSE(plan.a_groups.empty());
  EXPECT_EQ(plan.a_groups.front().first, 0u);
  EXPECT_EQ(plan.a_groups.back().last, L - 1);
  for (std::size_t i = 1; i < plan.a_groups.size(); ++i) {
    EXPECT_EQ(plan.a_groups[i].first, plan.a_groups[i - 1].last + 1);
  }
  // Gradient groups cover every layer exactly once.
  std::vector<std::size_t> grad_layers;
  for (const auto& group : plan.grad_groups) {
    grad_layers.insert(grad_layers.end(), group.begin(), group.end());
  }
  std::sort(grad_layers.begin(), grad_layers.end());
  std::vector<std::size_t> all(L);
  std::iota(all.begin(), all.end(), std::size_t{0});
  EXPECT_EQ(grad_layers, all);
  // 2L inverse tasks, every tensor exactly once; every CT has a broadcast.
  EXPECT_EQ(plan.inverse_tasks.size(), 2 * L);
  EXPECT_TRUE(plan.placement.valid(2 * L));
  EXPECT_EQ(plan.broadcast_tasks.size(), plan.placement.num_cts());
  EXPECT_GE(plan.update_task, 0);
}

TEST(Planner, CommOrderIsSortedByReadinessGradsBeforeFactorsOnTies) {
  const ScheduleInputs in = mlp_inputs(4);
  ScheduleOptions opt;
  const IterationPlan plan = plan_iteration(in, opt, flat_costs(4));
  ASSERT_FALSE(plan.comm_order.empty());
  for (std::size_t i = 1; i < plan.comm_order.size(); ++i) {
    EXPECT_LE(plan.task(plan.comm_order[i - 1]).ready,
              plan.task(plan.comm_order[i]).ready);
  }
  // Every collective is either in comm_order or a broadcast.
  std::size_t collectives = 0;
  for (const Task& t : plan.tasks) collectives += t.is_collective() ? 1 : 0;
  EXPECT_EQ(collectives, plan.num_collectives());
}

TEST(Planner, ByteCountsSumCollectivePayloadsPerKind) {
  const ScheduleInputs in = mlp_inputs(4);
  ScheduleOptions opt;
  opt.factor_codec = comm::Codec::kInt8;
  opt.grad_codec = comm::Codec::kTopK;
  const IterationPlan plan = plan_iteration(in, opt, flat_costs(4));
  std::size_t raw = 0, wire = 0;
  for (const Task& t : plan.tasks) {
    if (!t.is_collective()) continue;
    raw += t.elements * sizeof(double);
    wire += t.wire_elements * sizeof(double);
  }
  EXPECT_EQ(plan.raw_bytes(), raw);
  EXPECT_EQ(plan.wire_bytes(), wire);
  EXPECT_LT(wire, raw);  // both codecs compress
  for (const auto bytes : {&IterationPlan::raw_bytes,
                           &IterationPlan::wire_bytes}) {
    EXPECT_EQ((plan.*bytes)(TaskKind::kFusedAllReduce) +
                  (plan.*bytes)(TaskKind::kGradAllReduce) +
                  (plan.*bytes)(TaskKind::kBroadcast),
              (plan.*bytes)(std::nullopt));
    EXPECT_EQ((plan.*bytes)(TaskKind::kInverse), 0u);  // not a collective
  }
}

TEST(Planner, BulkModeDefersBothFamiliesAfterEveryGradientGroup) {
  const ScheduleInputs in = mlp_inputs(2);
  ScheduleOptions opt;
  opt.factor_comm = FactorCommMode::kBulk;
  opt.inverse = InverseMode::kLocalAll;
  const IterationPlan plan = plan_iteration(in, opt, flat_costs(2));
  ASSERT_EQ(plan.a_comm.size(), 1u);
  ASSERT_EQ(plan.g_comm.size(), 1u);
  EXPECT_TRUE(plan.task(plan.a_comm[0]).deferred);
  EXPECT_TRUE(plan.task(plan.g_comm[0]).deferred);
  EXPECT_EQ(plan.task(plan.a_comm[0]).label, "A-bulk");
  EXPECT_EQ(plan.task(plan.g_comm[0]).label, "G-bulk");
  // Canonical order: every gradient group strictly before the bulk ops,
  // A-bulk before G-bulk.
  const auto& order = plan.comm_order;
  const auto pos = [&](int id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  for (int g : plan.grad_comm) {
    EXPECT_LT(pos(g), pos(plan.a_comm[0]));
  }
  EXPECT_LT(pos(plan.a_comm[0]), pos(plan.g_comm[0]));
  // Non-Dist: everything replicated, nothing broadcast.
  EXPECT_EQ(plan.broadcast_tasks.size(), 0u);
  EXPECT_EQ(plan.placement.num_ncts(), 2 * in.layers.size());
}

TEST(Planner, NaiveModeShipsAFamilyAtEndOfForward) {
  const ScheduleInputs in = mlp_inputs(2);
  ScheduleOptions opt;
  opt.factor_comm = FactorCommMode::kNaive;
  const IterationPlan plan = plan_iteration(in, opt, flat_costs(2));
  ASSERT_EQ(plan.a_comm.size(), 1u);
  const Task& a_bulk = plan.task(plan.a_comm[0]);
  EXPECT_FALSE(a_bulk.deferred);  // submitted the moment A_{L-1} is packed
  EXPECT_EQ(a_bulk.ready, in.timing.a_ready.back());
  EXPECT_TRUE(plan.task(plan.g_comm[0]).deferred);
  // A-bulk precedes every gradient group (forward pass vs backward pass).
  EXPECT_EQ(plan.comm_order.front(), plan.a_comm[0]);
}

TEST(Planner, SingleWorkerPlansNoCollectives) {
  const ScheduleInputs in = mlp_inputs(1);
  ScheduleOptions opt;
  const IterationPlan plan = plan_iteration(in, opt, flat_costs(1));
  EXPECT_EQ(plan.num_collectives(), 0u);
  EXPECT_TRUE(plan.a_groups.empty());
  EXPECT_TRUE(plan.grad_groups.empty());
  // Inverses still planned (all replicated — nothing to broadcast).
  EXPECT_EQ(plan.inverse_tasks.size(), 2 * in.layers.size());
  for (int id : plan.inverse_tasks) {
    EXPECT_EQ(plan.task(id).rank, -1);
  }
}

TEST(Planner, SingleLayerModelFusesToOneGroupPerPass) {
  ScheduleInputs in;
  LayerShape layer;
  layer.dim_a = 5;
  layer.dim_g = 3;
  layer.a_elements = 15;
  layer.g_elements = 6;
  layer.grad_elements = 15;
  in.layers = {layer};
  in.world_size = 4;
  in.timing.a_ready = {1.0};
  in.timing.g_ready = {3.0};
  in.timing.grad_ready = {2.0};
  in.timing.backward_end = 3.5;
  for (FactorCommMode mode :
       {FactorCommMode::kBulk, FactorCommMode::kNaive,
        FactorCommMode::kLayerWise, FactorCommMode::kThresholdFuse,
        FactorCommMode::kOptimalFuse}) {
    ScheduleOptions opt;
    opt.factor_comm = mode;
    const IterationPlan plan = plan_iteration(in, opt, flat_costs(4));
    ASSERT_EQ(plan.a_comm.size(), 1u) << to_string(mode);
    ASSERT_EQ(plan.g_comm.size(), 1u) << to_string(mode);
    EXPECT_EQ(plan.task(plan.a_comm[0]).elements, 15u) << to_string(mode);
    EXPECT_EQ(plan.task(plan.g_comm[0]).elements, 6u) << to_string(mode);
    ASSERT_EQ(plan.grad_comm.size(), 1u) << to_string(mode);
    // grad[0..0] flushes at layer 0 (the only layer).
    EXPECT_EQ(plan.task(plan.grad_comm[0]).first, 0u);
    EXPECT_EQ(plan.task(plan.grad_comm[0]).last, 0u);
  }
}

TEST(Planner, ZeroElementFactorFlowsThroughEveryMode) {
  // A degenerate 0-dim G factor (e.g. a masked-out head): packed size 0.
  ScheduleInputs in;
  LayerShape a, b;
  a.dim_a = 4;
  a.dim_g = 2;
  a.a_elements = 10;
  a.g_elements = 3;
  a.grad_elements = 8;
  b.dim_a = 3;
  b.dim_g = 0;
  b.a_elements = 6;
  b.g_elements = 0;
  b.grad_elements = 1;
  in.layers = {a, b};
  in.world_size = 2;
  in.timing.a_ready = {1.0, 2.0};
  in.timing.g_ready = {4.0, 5.0};
  in.timing.grad_ready = {4.5, 3.5};
  in.timing.backward_end = 6.0;
  for (FactorCommMode mode :
       {FactorCommMode::kBulk, FactorCommMode::kLayerWise,
        FactorCommMode::kOptimalFuse}) {
    ScheduleOptions opt;
    opt.factor_comm = mode;
    const IterationPlan plan = plan_iteration(in, opt, flat_costs(2));
    // Every G element count is preserved, including the empty factor.
    std::size_t g_total = 0;
    for (int id : plan.g_comm) g_total += plan.task(id).elements;
    EXPECT_EQ(g_total, 3u) << to_string(mode);
    // The 0-dim tensor still gets an inverse task (free to replicate).
    const auto zero_dim = std::count_if(
        plan.inverse_tasks.begin(), plan.inverse_tasks.end(),
        [&](int id) { return plan.task(id).dim == 0; });
    EXPECT_EQ(zero_dim, 1) << to_string(mode);
  }
}

TEST(Planner, SkippedFactorStepPlansNoFactorWork) {
  const ScheduleInputs in = mlp_inputs(4);
  ScheduleOptions opt;
  opt.factor_update = false;  // factor_update_freq > 1 off-step
  const IterationPlan plan = plan_iteration(in, opt, flat_costs(4));
  EXPECT_TRUE(plan.a_compute.empty());
  EXPECT_TRUE(plan.g_compute.empty());
  EXPECT_TRUE(plan.a_comm.empty());
  EXPECT_TRUE(plan.g_comm.empty());
  EXPECT_FALSE(plan.grad_comm.empty());  // WFBP still flows
  // Inverses may still be refreshed from the stale running averages; they
  // depend on nothing scheduled this step.
  ASSERT_FALSE(plan.inverse_tasks.empty());
  EXPECT_TRUE(plan.task(plan.inverse_tasks.front()).deps.empty());

  opt.inverse_update = false;
  const IterationPlan none = plan_iteration(in, opt, flat_costs(4));
  EXPECT_TRUE(none.inverse_tasks.empty());
  EXPECT_TRUE(none.broadcast_tasks.empty());
  EXPECT_TRUE(none.placement.assignments.empty());
}

TEST(Planner, AutoPolicyResolvesAlgorithmsThroughSelector) {
  const ScheduleInputs in = mlp_inputs(4);
  ScheduleOptions opt;
  opt.collective_algo = comm::AllReduceAlgo::kAuto;
  const ScheduleCosts costs = flat_costs(4);
  const IterationPlan plan = plan_iteration(in, opt, costs);
  for (int id : plan.comm_order) {
    const Task& t = plan.task(id);
    EXPECT_EQ(t.algo, costs.selector.choose(t.elements)) << t.label;
    EXPECT_NE(t.label.find('@'), std::string::npos) << t.label;
  }
}

TEST(Planner, RejectsInconsistentInputs) {
  ScheduleInputs in = mlp_inputs(2);
  const ScheduleCosts costs = flat_costs(2);
  ScheduleOptions opt;

  ScheduleInputs empty = in;
  empty.layers.clear();
  EXPECT_THROW(plan_iteration(empty, opt, costs), std::invalid_argument);

  ScheduleInputs bad_world = in;
  bad_world.world_size = 0;
  EXPECT_THROW(plan_iteration(bad_world, opt, costs), std::invalid_argument);

  ScheduleInputs bad_timing = in;
  bad_timing.timing.a_ready.pop_back();
  EXPECT_THROW(plan_iteration(bad_timing, opt, costs), std::invalid_argument);

  ScheduleInputs bad_grads = in;
  bad_grads.timing.grad_ready.clear();
  EXPECT_THROW(plan_iteration(bad_grads, opt, costs), std::invalid_argument);
}

TEST(Planner, TaskKindNamesAreStable) {
  EXPECT_STREQ(to_string(TaskKind::kFactorCompute), "FactorCompute");
  EXPECT_STREQ(to_string(TaskKind::kFusedAllReduce), "FusedAllReduce");
  EXPECT_STREQ(to_string(TaskKind::kGradAllReduce), "GradAllReduce");
  EXPECT_STREQ(to_string(TaskKind::kInverse), "Inverse");
  EXPECT_STREQ(to_string(TaskKind::kBroadcast), "Broadcast");
  EXPECT_STREQ(to_string(TaskKind::kUpdate), "Update");
}

}  // namespace
}  // namespace spdkfac::sched
