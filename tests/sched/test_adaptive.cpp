// Adaptive re-planning equivalence — the acceptance suite of the online
// profiling → sync → re-plan → cache loop:
//
//   1. Trajectory equivalence: a runtime driven by a deterministic profile
//      trajectory re-plans every `replan_interval` steps, and each epoch's
//      schedule must be byte-identical to what sim::simulate_trajectory
//      produces from the same trajectory — the adaptive extension of the
//      PR 3 runtime/sim equivalence contract.  The recorded collective
//      submissions of every step must be exactly that epoch's canonical
//      collective sequence, with no out-of-plan traffic (trajectory mode
//      needs no profile sync).
//   2. Memo equivalence: with the same trajectory, every step's plan —
//      memoized or not — must be byte-identical to a fresh
//      sched::plan_iteration on that epoch's entry, the steady-state steps
//      must actually hit the memo, and only a changed timing re-plans.
//   3. Live mode: measured-profile adaptivity completes, syncs the profile
//      across ranks (the out-of-plan "profile-sync" all-reduce), and feeds
//      the profiler from the executor/engine taps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "core/dist_kfac.hpp"
#include "models/model_spec.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "perf/models.hpp"
#include "sched/planner.hpp"
#include "sched/serialize.hpp"
#include "sim/iteration.hpp"
#include "tensor/matrix.hpp"

namespace spdkfac {
namespace {

using nn::Tensor4D;
using tensor::Rng;

constexpr std::size_t kWidths[] = {6, 10, 8, 3};
constexpr std::size_t kIn = 6, kClasses = 3, kBatch = 8;
constexpr std::size_t kGradThreshold = 80;
constexpr std::size_t kReplanInterval = 2;

sched::PassTiming scale_timing(sched::PassTiming timing, double factor) {
  for (auto* v : {&timing.a_ready, &timing.g_ready, &timing.grad_ready}) {
    for (double& t : *v) t *= factor;
  }
  timing.backward_end *= factor;
  return timing;
}

/// Three re-plan epochs spanning two decades of absolute scale: the
/// Eq. (15) fusion decision compares pass gaps against the absolute
/// all-reduce startup cost, so the same shape at different scales fuses
/// differently — which is what makes the trajectory a real adaptivity
/// probe rather than three copies of one schedule.
std::vector<sched::PassTiming> trajectory_for(
    const models::ModelSpec& spec, const perf::ClusterCalibration& cal) {
  const sched::PassTiming base =
      sched::timing_from_model(spec, kBatch, cal.compute,
                               /*second_order=*/true);
  return {base, scale_timing(base, 12.0), scale_timing(base, 150.0)};
}

struct StepCapture {
  std::string plan_text;
  std::vector<std::string> submissions;  // op names, this step only
};

/// Runs `steps` adaptive steps (post-hoc) and captures rank 0's per-step
/// plan + submissions.
std::vector<StepCapture> run_adaptive_runtime(
    int world, const std::vector<sched::PassTiming>& trajectory, int steps,
    const perf::ClusterCalibration& cal) {
  std::vector<StepCapture> captures;
  comm::Cluster::launch(world, [&](comm::Communicator& comm) {
    Rng init(4242);
    nn::Sequential model = nn::make_mlp(kWidths, init);
    auto layers = model.preconditioned_layers();

    core::DistKfacOptions opts;
    opts.strategy = core::DistStrategy::kSpdKfac;
    opts.factor_comm = sched::FactorCommMode::kOptimalFuse;
    opts.grad_fusion_threshold = kGradThreshold;
    opts.lr = 0.1;
    opts.damping = 0.1;
    opts.allreduce_model = cal.allreduce;
    opts.broadcast_model = cal.bcast_fabric;
    opts.inverse_model = cal.inverse;
    opts.profile_trajectory = trajectory;
    opts.replan_interval = kReplanInterval;
    core::DistKfacOptimizer optimizer(layers, comm, opts);

    Rng shard(100 + comm.rank());
    nn::SyntheticClassification data(kClasses, kIn, 1, 77);
    nn::SoftmaxCrossEntropy loss;
    std::size_t seen_records = 0;
    for (int s = 0; s < steps; ++s) {
      const nn::Batch batch = data.sample(kBatch, shard);
      Tensor4D flat(batch.inputs.n, kIn, 1, 1);
      flat.data = batch.inputs.data;
      loss.forward(model.forward(flat), batch.labels);
      model.backward(loss.backward());
      optimizer.step();
      if (comm.rank() == 0) {
        StepCapture cap;
        cap.plan_text = sched::plan_to_text(optimizer.plan());
        const auto records = optimizer.comm_records();
        for (std::size_t i = seen_records; i < records.size(); ++i) {
          cap.submissions.push_back(records[i].name);
        }
        seen_records = records.size();
        captures.push_back(std::move(cap));
      }
    }
  });
  return captures;
}

sim::AlgorithmConfig adaptive_sim_config() {
  sim::AlgorithmConfig cfg = sim::AlgorithmConfig::spd_kfac();
  cfg.grad_fusion_threshold = kGradThreshold;
  cfg.inverse = sim::InverseMode::kLayerLBP;  // the runtime's SPD-KFAC
  return cfg;
}

class AdaptiveEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(AdaptiveEquivalence, ReplannedSchedulesMatchSimulatorEpochForEpoch) {
  const int world = GetParam();
  const auto cal =
      perf::ClusterCalibration::for_topology(comm::Topology::flat(world));
  const models::ModelSpec spec = models::mlp_spec(kWidths);
  const std::vector<sched::PassTiming> trajectory = trajectory_for(spec, cal);

  const std::vector<sim::IterationResult> sim_epochs =
      sim::simulate_trajectory(spec, kBatch, cal, adaptive_sim_config(),
                               trajectory);
  ASSERT_EQ(sim_epochs.size(), trajectory.size());

  // The trajectory must actually adapt the schedule, or the test is
  // vacuous: the first and last epochs fuse differently.  (A single worker
  // communicates nothing, so its plan is timing-invariant by design —
  // there the suite checks re-planning is a harmless no-op.)
  if (world > 1) {
    EXPECT_NE(sched::plan_to_text(sim_epochs.front().plan),
              sched::plan_to_text(sim_epochs.back().plan))
        << "trajectory scales chosen too close — same plan every epoch";
  }

  const int steps = static_cast<int>(trajectory.size() * kReplanInterval);
  const std::vector<StepCapture> runtime =
      run_adaptive_runtime(world, trajectory, steps, cal);
  ASSERT_EQ(runtime.size(), static_cast<std::size_t>(steps));

  for (int s = 0; s < steps; ++s) {
    const std::size_t epoch = static_cast<std::size_t>(s) / kReplanInterval;
    const std::string at = "step " + std::to_string(s) + " (epoch " +
                           std::to_string(epoch) + ", P=" +
                           std::to_string(world) + ")";
    // 1. The re-planned runtime schedule is byte-identical to the
    //    simulator's plan for the same trajectory entry.
    EXPECT_EQ(runtime[s].plan_text,
              sched::plan_to_text(sim_epochs[epoch].plan))
        << at;
    // 2. The step's recorded submissions are exactly the epoch plan's
    //    canonical collective sequence — and nothing else (no sync op in
    //    trajectory mode).
    const auto& collectives = sim_epochs[epoch].collectives;
    ASSERT_EQ(runtime[s].submissions.size(), collectives.size()) << at;
    for (std::size_t i = 0; i < collectives.size(); ++i) {
      EXPECT_EQ(runtime[s].submissions[i], collectives[i].label)
          << at << " collective " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, AdaptiveEquivalence,
                         ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

struct MemoRun {
  std::vector<std::string> plan_text;   ///< rank 0's plan, per step
  std::vector<std::string> fresh_text;  ///< plan_iteration on that epoch
  std::size_t hits = 0;
  std::size_t misses = 0;
};

/// Adaptive training run over `trajectory`; captures rank 0's per-step plan
/// next to a fresh planner run on the step's trajectory entry, plus the
/// memo counters.
MemoRun train_adaptive(int world,
                       const std::vector<sched::PassTiming>& trajectory,
                       int steps, const perf::ClusterCalibration& cal) {
  const models::ModelSpec spec = models::mlp_spec(kWidths);
  MemoRun run;
  comm::Cluster::launch(world, [&](comm::Communicator& comm) {
    Rng init(2024);
    nn::Sequential model = nn::make_mlp(kWidths, init);
    auto layers = model.preconditioned_layers();
    core::DistKfacOptions opts;
    opts.strategy = core::DistStrategy::kSpdKfac;
    opts.factor_comm = sched::FactorCommMode::kOptimalFuse;
    opts.grad_fusion_threshold = kGradThreshold;
    opts.lr = 0.1;
    opts.damping = 0.1;
    opts.stat_decay = 0.5;
    opts.allreduce_model = cal.allreduce;
    opts.broadcast_model = cal.bcast_fabric;
    opts.inverse_model = cal.inverse;
    opts.profile_trajectory = trajectory;
    opts.replan_interval = kReplanInterval;
    core::DistKfacOptimizer optimizer(layers, comm, opts);

    // What the optimizer plans every step (factors and inverses are due
    // every step at the default frequencies).
    sched::ScheduleOptions plan_opts;
    static_cast<sched::PlanShape&>(plan_opts) = opts;
    plan_opts.inverse = sched::InverseMode::kLayerLBP;
    const sched::ScheduleCosts costs{opts.allreduce_model,
                                     opts.broadcast_model, opts.inverse_model,
                                     comm::AlgorithmSelector(comm.topology())};
    sched::ScheduleInputs inputs;
    inputs.layers = sched::shapes_from_model(spec);
    inputs.world_size = comm.size();

    nn::SyntheticClassification data(kClasses, kIn, 1, 55);
    Rng shard(300 + comm.rank());
    nn::SoftmaxCrossEntropy loss;
    for (int s = 0; s < steps; ++s) {
      auto batch = data.sample(kBatch, shard);
      Tensor4D flat(batch.inputs.n, kIn, 1, 1);
      flat.data = batch.inputs.data;
      loss.forward(model.forward(flat), batch.labels);
      model.backward(loss.backward());
      optimizer.step();
      if (comm.rank() == 0) {
        const std::size_t epoch = static_cast<std::size_t>(s) /
                                  kReplanInterval;
        inputs.timing = trajectory[std::min(epoch, trajectory.size() - 1)];
        run.plan_text.push_back(sched::plan_to_text(optimizer.plan()));
        run.fresh_text.push_back(sched::plan_to_text(
            sched::plan_iteration(inputs, plan_opts, costs)));
      }
    }
    if (comm.rank() == 0) {
      run.hits = optimizer.plan_cache().hits();
      run.misses = optimizer.plan_cache().misses();
    }
  });
  return run;
}

TEST(AdaptivePlanCache, HitPathIsBitwiseIdenticalToAlwaysReplan) {
  // 7 steps over a 3-entry trajectory at interval 2: epochs at steps 0, 2,
  // 4 and a clamped refresh at 6.  Steps 1/3/5 and the step-6 refresh
  // (same trajectory entry, equal timing) must hit the memo, and every
  // step's plan must be the one a fresh planner run builds.
  constexpr int kSteps = 7;
  const auto cal =
      perf::ClusterCalibration::for_topology(comm::Topology::flat(2));
  const MemoRun run = train_adaptive(
      2, trajectory_for(models::mlp_spec(kWidths), cal), kSteps, cal);

  ASSERT_EQ(run.plan_text.size(), static_cast<std::size_t>(kSteps));
  for (int s = 0; s < kSteps; ++s) {
    EXPECT_EQ(run.plan_text[s], run.fresh_text[s]) << "step " << s;
  }
  EXPECT_EQ(run.misses, 3u) << "one planner run per distinct trajectory epoch";
  EXPECT_EQ(run.hits, static_cast<std::size_t>(kSteps) - 3u)
      << "every steady-state step must reuse the memoized plan";
}

TEST(AdaptivePlanCache, ReturningProfileReplansToTheSamePlan) {
  // Trajectory {p, q, p}: the third epoch's timing differs from the
  // second's, so it misses — and rebuilds exactly the first epoch's plan.
  constexpr int kSteps = 6;
  const auto cal =
      perf::ClusterCalibration::for_topology(comm::Topology::flat(2));
  const std::vector<sched::PassTiming> pq =
      trajectory_for(models::mlp_spec(kWidths), cal);
  const MemoRun run = train_adaptive(2, {pq.front(), pq.back(), pq.front()},
                                     kSteps, cal);

  ASSERT_EQ(run.plan_text.size(), static_cast<std::size_t>(kSteps));
  for (int s = 0; s < kSteps; ++s) {
    EXPECT_EQ(run.plan_text[s], run.fresh_text[s]) << "step " << s;
  }
  EXPECT_NE(run.plan_text[0], run.plan_text[2])
      << "p and q chosen too close — same plan every epoch";
  EXPECT_EQ(run.plan_text[4], run.plan_text[0]);
  EXPECT_EQ(run.misses, 3u) << "the return to p is a planner run";
  EXPECT_EQ(run.hits, 3u);
}

TEST(AdaptiveLiveMode, MeasuredProfileLoopSyncsAndCompletes) {
  // Live adaptivity (no injected profile): the profiler accumulates real
  // task timings, the re-plan points rank-sync them with the out-of-plan
  // "profile-sync" all-reduce, and training runs to completion.  Schedules
  // are wall-clock dependent here, so the assertions are structural only.
  constexpr int kWorld = 2, kSteps = 4;
  comm::Cluster::launch(kWorld, [&](comm::Communicator& comm) {
    Rng init(7);
    nn::Sequential model = nn::make_mlp(kWidths, init);
    auto layers = model.preconditioned_layers();
    core::DistKfacOptions opts;
    opts.strategy = core::DistStrategy::kSpdKfac;
    opts.factor_comm = sched::FactorCommMode::kOptimalFuse;
    opts.grad_fusion_threshold = kGradThreshold;
    opts.lr = 0.1;
    opts.damping = 0.1;
    opts.replan_interval = 2;
    core::DistKfacOptimizer optimizer(layers, comm, opts);

    nn::SyntheticClassification data(kClasses, kIn, 1, 99);
    Rng shard(400 + comm.rank());
    nn::SoftmaxCrossEntropy loss;
    for (int s = 0; s < kSteps; ++s) {
      auto batch = data.sample(kBatch, shard);
      Tensor4D flat(batch.inputs.n, kIn, 1, 1);
      flat.data = batch.inputs.data;
      const nn::PassHooks hooks = optimizer.pass_hooks();
      loss.forward(model.forward(flat, hooks), batch.labels);
      model.backward(loss.backward(), hooks);
      optimizer.step();
    }

    EXPECT_EQ(optimizer.steps(), static_cast<std::size_t>(kSteps));
    EXPECT_GE(optimizer.replan_count(), 2u);  // steps 0 and 2
    EXPECT_TRUE(optimizer.profiler().has_factor_samples());
    EXPECT_GT(optimizer.profiler().collective_ops(), 0u);

    // The profile sync ran at each live re-plan point: out-of-plan records
    // named "profile-sync".
    std::size_t syncs = 0;
    for (const auto& rec : optimizer.comm_records()) {
      if (rec.plan_task < 0) {
        EXPECT_EQ(rec.name, "profile-sync");
        ++syncs;
      }
    }
    EXPECT_EQ(syncs, optimizer.replan_count());
  });
}

}  // namespace
}  // namespace spdkfac
