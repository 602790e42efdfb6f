// Determinism under concurrency — the safety net of the dataflow refactor:
// with a fixed planning profile (reproducible schedules), the same seeds
// must yield *bitwise-identical* parameters after N steps for every
// executor configuration: pool_size 1, 2 and 4 compute threads per rank
// (the pool spawns 0, 1 and 3 workers, and the rank thread is its member —
// at 1 the only thread, running every plan task), hooked and post-hoc.  Everything that
// moved onto the pool — blocked GEMM/Cholesky loops, concurrent factor
// builds, racing inverse tasks, out-of-order collective completions, the
// rank thread running plan tasks inside step() — must be invisible to the
// numerics.  Runs under TSan in CI, where any ordering the executor fails
// to enforce also surfaces as a data race.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
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
#include "tensor/kernels/kernels.hpp"
#include "tensor/matrix.hpp"
#include "testsupport/backends.hpp"

namespace spdkfac::core {
namespace {

using nn::Tensor4D;
using tensor::Matrix;
using tensor::Rng;

constexpr std::size_t kWidths[] = {6, 12, 10, 3};
constexpr std::size_t kIn = 6, kClasses = 3, kBatch = 8;
constexpr int kSteps = 3;

struct RunConfig {
  int world = 2;
  std::size_t pool_size = 1;
  DistStrategy strategy = DistStrategy::kSpdKfac;
  bool hooked = true;
  int steps = kSteps;
  /// Adaptive mode: re-plan every 2 steps from a deterministic profile
  /// trajectory instead of a single fixed profile.  The schedule then
  /// *changes mid-run* (different fusion per epoch), and determinism must
  /// survive the re-planning loop and the plan cache.
  bool adaptive = false;
  /// Microkernel ISA level to pin inside every rank (forked ranks force it
  /// in-child).  Bitwise determinism is promised *within* a level, never
  /// across levels (FMA contraction rounds differently) — so the forced-ISA
  /// matrix never compares scalar weights against avx2 weights.
  std::optional<tensor::kernels::Isa> isa = std::nullopt;
};

/// Deterministic trajectory spanning two decades of absolute scale — each
/// epoch fuses differently (see tests/sched/test_adaptive.cpp).
std::vector<sched::PassTiming> trajectory_for(
    const models::ModelSpec& spec, const perf::ClusterCalibration& cal) {
  sched::PassTiming base = sched::timing_from_model(spec, kBatch, cal.compute,
                                                    /*second_order=*/true);
  auto scale = [](sched::PassTiming t, double f) {
    for (auto* v : {&t.a_ready, &t.g_ready, &t.grad_ready}) {
      for (double& x : *v) x *= f;
    }
    t.backward_end *= f;
    return t;
  };
  return {base, scale(base, 12.0), scale(base, 150.0)};
}

/// The per-rank training body shared by every launch mode: N steps with a
/// fixed profile (or trajectory), returning this rank's final weights.
std::vector<Matrix> train_rank(const RunConfig& cfg, comm::Communicator& comm,
                               std::string* plan_text = nullptr) {
  if (cfg.isa.has_value()) tensor::kernels::force(*cfg.isa);
  const models::ModelSpec spec = models::mlp_spec(kWidths);
  const auto cal =
      perf::ClusterCalibration::for_topology(comm::Topology::flat(cfg.world));
  Rng init(2024);
  nn::Sequential model = nn::make_mlp(kWidths, init);
  auto layers = model.preconditioned_layers();
  DistKfacOptions opts;
  opts.strategy = cfg.strategy;
  opts.pool_size = cfg.pool_size;
  opts.lr = 0.1;
  opts.damping = 0.1;
  opts.stat_decay = 0.5;
  opts.grad_fusion_threshold = 64;  // several WFBP groups
  // Fixed profile/trajectory: the fusion plan must not depend on
  // wall-clock measurements, or different pool sizes would legitimately
  // produce different (equally correct) schedules.
  if (cfg.adaptive) {
    opts.profile_trajectory = trajectory_for(spec, cal);
    opts.replan_interval = 2;
  } else {
    opts.profile = sched::timing_from_model(spec, kBatch, cal.compute,
                                            /*second_order=*/true);
  }
  DistKfacOptimizer optimizer(layers, comm, opts);

  nn::SyntheticClassification data(kClasses, kIn, 1, 55);
  Rng shard(300 + comm.rank());
  nn::SoftmaxCrossEntropy loss;
  for (int s = 0; s < cfg.steps; ++s) {
    auto batch = data.sample(kBatch, shard);
    Tensor4D flat(batch.inputs.n, kIn, 1, 1);
    flat.data = batch.inputs.data;
    if (cfg.hooked) {
      const nn::PassHooks hooks = optimizer.pass_hooks();
      loss.forward(model.forward(flat, hooks), batch.labels);
      model.backward(loss.backward(), hooks);
    } else {
      loss.forward(model.forward(flat), batch.labels);
      model.backward(loss.backward());
    }
    optimizer.step();
  }
  if (plan_text != nullptr) {
    *plan_text = sched::plan_to_text(optimizer.plan());
  }
  std::vector<Matrix> weights;
  for (auto* l : layers) weights.push_back(l->weight());
  return weights;
}

/// In-process launch; returns rank-0 final weights and, when `plan_texts`
/// is given, every rank's serialized final plan (indexed by rank).
std::vector<Matrix> train(const RunConfig& cfg,
                          std::vector<std::string>* plan_texts = nullptr) {
  std::vector<Matrix> weights;
  if (plan_texts != nullptr) {
    plan_texts->assign(static_cast<std::size_t>(cfg.world), "");
  }
  comm::Cluster::launch(cfg.world, [&](comm::Communicator& comm) {
    std::string plan_text;
    auto rank_weights = train_rank(cfg, comm, &plan_text);
    if (comm.rank() == 0) weights = std::move(rank_weights);
    if (plan_texts != nullptr) {
      (*plan_texts)[static_cast<std::size_t>(comm.rank())] =
          std::move(plan_text);
    }
  });
  return weights;
}

/// The same training over any transport backend; returns every rank's
/// final weights flattened to doubles (processes report through pipes, so
/// the result must be a plain vector).
std::vector<std::vector<double>> train_over(comm::TransportKind kind,
                                            const RunConfig& cfg) {
  return comm::Cluster::launch_collect(
      kind, comm::Topology::flat(cfg.world), [&](comm::Communicator& comm) {
        std::vector<double> flat;
        for (const Matrix& w : train_rank(cfg, comm)) {
          flat.insert(flat.end(), w.data().begin(), w.data().end());
        }
        return flat;
      });
}

std::vector<double> flatten(const std::vector<Matrix>& weights) {
  std::vector<double> flat;
  for (const Matrix& w : weights) {
    flat.insert(flat.end(), w.data().begin(), w.data().end());
  }
  return flat;
}

void expect_bitwise_equal(const std::vector<Matrix>& a,
                          const std::vector<Matrix>& b,
                          const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t l = 0; l < a.size(); ++l) {
    EXPECT_EQ(tensor::max_abs_diff(a[l], b[l]), 0.0)
        << context << " layer " << l;
  }
}

class DeterminismSuite : public ::testing::TestWithParam<DistStrategy> {};

TEST_P(DeterminismSuite, PoolSizesProduceBitwiseIdenticalModels) {
  RunConfig cfg;
  cfg.strategy = GetParam();
  cfg.pool_size = 1;
  const auto serial = train(cfg);
  for (const std::size_t pool : {std::size_t{2}, std::size_t{4}}) {
    cfg.pool_size = pool;
    expect_bitwise_equal(train(cfg), serial,
                         std::string(to_string(GetParam())) + " pool=" +
                             std::to_string(pool));
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, DeterminismSuite,
                         ::testing::Values(DistStrategy::kDKfac,
                                           DistStrategy::kMpdKfac,
                                           DistStrategy::kSpdKfac),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

TEST(Determinism, HookedMatchesPostHocUnderEveryPoolSize) {
  // The two trigger paths release the same gates; with a fixed profile the
  // executed dataflow (and so the model) must be bitwise identical.
  for (const std::size_t pool : {std::size_t{1}, std::size_t{4}}) {
    RunConfig hooked{.world = 4, .pool_size = pool, .hooked = true};
    RunConfig posthoc{.world = 4, .pool_size = pool, .hooked = false};
    expect_bitwise_equal(train(hooked), train(posthoc),
                         "pool=" + std::to_string(pool));
  }
}

TEST(Determinism, RepeatedPooledRunsAreBitwiseStable) {
  // Same config twice: scheduler nondeterminism (steal order, completion
  // order) must never leak into the parameters.
  RunConfig cfg{.world = 4, .pool_size = 4};
  expect_bitwise_equal(train(cfg), train(cfg), "repeat");
}

TEST(Determinism, AdaptiveReplanningIsBitwiseIdenticalAcrossPoolSizes) {
  // The adaptive loop re-plans mid-run (trajectory epochs at steps 0, 2,
  // 4), changing fusion groups between epochs.  Re-planning and the plan
  // memo are pure functions of the injected trajectory — so every
  // executor configuration must still produce the
  // identical bits, exactly like the fixed-profile runs above.
  RunConfig cfg;
  cfg.world = 2;
  cfg.adaptive = true;
  cfg.steps = 6;
  cfg.pool_size = 1;
  const auto serial = train(cfg);
  for (const std::size_t pool : {std::size_t{2}, std::size_t{4}}) {
    cfg.pool_size = pool;
    expect_bitwise_equal(train(cfg), serial,
                         "adaptive pool=" + std::to_string(pool));
  }
}

TEST(Determinism, AdaptiveHookedMatchesPostHocAndRepeats) {
  RunConfig hooked{.world = 4, .pool_size = 4, .hooked = true, .steps = 6,
                   .adaptive = true};
  RunConfig posthoc{.world = 4, .pool_size = 4, .hooked = false, .steps = 6,
                    .adaptive = true};
  const auto first = train(hooked);
  expect_bitwise_equal(first, train(posthoc), "adaptive hooked==post-hoc");
  expect_bitwise_equal(first, train(hooked), "adaptive repeat");
}

// ---------------------------------------------------------------------------
// Cross-backend determinism: moving the ranks out of process — onto a
// socket mesh — must be invisible to the numerics.  The wire carries raw
// IEEE-754 bits and the collectives apply the identical reduction orders,
// so P=4 training must be bitwise-identical across both transports (and
// across pool sizes on a real wire).
// ---------------------------------------------------------------------------

class DeterminismBackend
    : public ::testing::TestWithParam<comm::TransportKind> {
 protected:
  void SetUp() override {
    SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(GetParam());
  }
};

TEST_P(DeterminismBackend, TrainingMatchesInProcessBitwise) {
  RunConfig cfg{.world = 4, .pool_size = 2};
  const std::vector<double> reference = flatten(train(cfg));
  const auto results = train_over(GetParam(), cfg);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t r = 0; r < results.size(); ++r) {
    // Every rank ends with the same model (synchronous training), and that
    // model is bit-for-bit the in-process one.
    EXPECT_EQ(results[r], reference)
        << testsupport::backend_name(GetParam()) << " rank " << r
        << " diverged from the in-process run";
  }
}

TEST_P(DeterminismBackend, PoolSizesAgreeOverTheWire) {
  // One compute thread vs two, both on this backend: executor
  // concurrency must stay invisible even when the collectives cross a
  // process boundary mid-step.
  RunConfig cfg{.world = 4, .pool_size = 1};
  const auto serial = train_over(GetParam(), cfg);
  cfg.pool_size = 2;
  const auto pooled = train_over(GetParam(), cfg);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r], pooled[r])
        << testsupport::backend_name(GetParam()) << " rank " << r
        << " pool=2 diverged from pool=1";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, DeterminismBackend,
    ::testing::ValuesIn(testsupport::kAllTransports),
    [](const ::testing::TestParamInfo<comm::TransportKind>& info) {
      return testsupport::backend_name(info.param);
    });

// ---------------------------------------------------------------------------
// Forced-ISA matrix: the microkernel determinism contract says bits are a
// pure function of (inputs, shape, ISA level) — so at *each* pinned level,
// every pool size and every transport must reproduce the identical model.
// ---------------------------------------------------------------------------

std::vector<tensor::kernels::Isa> kernel_levels() {
  std::vector<tensor::kernels::Isa> levels{tensor::kernels::Isa::kScalar};
  if (tensor::kernels::supported(tensor::kernels::Isa::kAvx2)) {
    levels.push_back(tensor::kernels::Isa::kAvx2);
  }
  return levels;
}

/// Restores the process-global active level on scope exit (in-process ranks
/// force it globally; forked ranks only mutate their own copy).
class IsaGuard {
 public:
  IsaGuard() : saved_(tensor::kernels::active()) {}
  ~IsaGuard() { tensor::kernels::force(saved_); }

 private:
  tensor::kernels::Isa saved_;
};

class ForcedIsaBackend
    : public ::testing::TestWithParam<comm::TransportKind> {
 protected:
  void SetUp() override {
    SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(GetParam());
  }
};

TEST_P(ForcedIsaBackend, PoolSizesBitwiseIdenticalAtEveryIsaLevel) {
  const IsaGuard guard;
  for (const tensor::kernels::Isa level : kernel_levels()) {
    RunConfig cfg{.world = 2, .pool_size = 1, .isa = level};
    const auto serial = train_over(GetParam(), cfg);
    ASSERT_EQ(serial.size(), 2u);
    for (const std::size_t pool : {std::size_t{2}, std::size_t{4}}) {
      cfg.pool_size = pool;
      const auto pooled = train_over(GetParam(), cfg);
      ASSERT_EQ(pooled.size(), serial.size());
      for (std::size_t r = 0; r < serial.size(); ++r) {
        EXPECT_EQ(pooled[r], serial[r])
            << testsupport::backend_name(GetParam()) << " isa="
            << tensor::kernels::to_string(level) << " pool=" << pool
            << " rank " << r << " diverged from pool=1";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ForcedIsaBackend,
    ::testing::ValuesIn(testsupport::kAllTransports),
    [](const ::testing::TestParamInfo<comm::TransportKind>& info) {
      return testsupport::backend_name(info.param);
    });

// ---------------------------------------------------------------------------
// Checkpoint/restore with the buffer arena, per ISA level: restoring mid-run
// rebuilds the optimizer (fresh arena, fresh plan cache) — the continued run
// must still be bitwise the uninterrupted one at the same pinned level.
// ---------------------------------------------------------------------------

std::vector<Matrix> train_checkpointed(tensor::kernels::Isa level,
                                       bool interrupted) {
  constexpr int kWorld = 2, kCut = 2, kTotal = 4;
  const models::ModelSpec spec = models::mlp_spec(kWidths);
  const auto cal = perf::ClusterCalibration::for_topology(
      comm::Topology::flat(kWorld));
  DistKfacOptions opts;
  opts.strategy = DistStrategy::kSpdKfac;
  opts.pool_size = 2;
  opts.lr = 0.1;
  opts.damping = 0.1;
  opts.stat_decay = 0.5;
  opts.grad_fusion_threshold = 64;
  opts.profile = sched::timing_from_model(spec, kBatch, cal.compute,
                                          /*second_order=*/true);

  std::vector<std::string> blobs(kWorld);
  std::vector<Matrix> weights;
  auto run = [&](bool restore_phase) {
    comm::Cluster::launch(kWorld, [&](comm::Communicator& comm) {
      tensor::kernels::force(level);
      Rng init(2024);
      nn::Sequential model = nn::make_mlp(kWidths, init);
      auto layers = model.preconditioned_layers();
      DistKfacOptimizer optimizer(layers, comm, opts);
      nn::SyntheticClassification data(kClasses, kIn, 1, 55);
      Rng shard(300 + comm.rank());
      nn::SoftmaxCrossEntropy loss;
      int first = 0, last = kTotal;
      if (interrupted) {
        if (restore_phase) {
          std::istringstream in(blobs[static_cast<std::size_t>(comm.rank())]);
          optimizer.restore_checkpoint(in);
          for (int s = 0; s < kCut; ++s) data.sample(kBatch, shard);  // replay
          first = kCut;
        } else {
          last = kCut;
        }
      }
      for (int s = first; s < last; ++s) {
        auto batch = data.sample(kBatch, shard);
        Tensor4D flat(batch.inputs.n, kIn, 1, 1);
        flat.data = batch.inputs.data;
        loss.forward(model.forward(flat), batch.labels);
        model.backward(loss.backward());
        optimizer.step();
      }
      if (interrupted && !restore_phase) {
        std::ostringstream out;
        optimizer.save_checkpoint(out);
        blobs[static_cast<std::size_t>(comm.rank())] = out.str();
      } else if (comm.rank() == 0) {
        // The restored optimizer must still run its collectives on the
        // (new) arena slab, not on staging copies.
        for (const auto& rec : optimizer.comm_records()) {
          if (rec.plan_task >= 0) {
            EXPECT_TRUE(optimizer.arena().contains(rec.data)) << rec.name;
          }
        }
        weights.clear();
        for (auto* l : layers) weights.push_back(l->weight());
      }
    });
  };
  if (interrupted) run(/*restore_phase=*/false);
  run(/*restore_phase=*/interrupted);
  return weights;
}

TEST(Determinism, CheckpointResumeBitwiseStableWithArenaAtEveryIsaLevel) {
  const IsaGuard guard;
  for (const tensor::kernels::Isa level : kernel_levels()) {
    const auto uninterrupted = train_checkpointed(level, false);
    const auto resumed = train_checkpointed(level, true);
    expect_bitwise_equal(resumed, uninterrupted,
                         std::string("checkpoint isa=") +
                             tensor::kernels::to_string(level));
  }
}

TEST(Determinism, AdaptiveReplannedPlansAreRankIdentical) {
  // After the last re-plan epoch every rank must hold the byte-identical
  // schedule — the cross-rank contract the profile sync / deterministic
  // trajectory exists to guarantee (a divergent plan would deadlock or
  // corrupt the collectives long before this check, but the serialized
  // comparison pins the property explicitly).
  RunConfig cfg;
  cfg.world = 4;
  cfg.adaptive = true;
  cfg.steps = 6;
  cfg.pool_size = 2;
  std::vector<std::string> plans;
  train(cfg, &plans);
  ASSERT_EQ(plans.size(), 4u);
  for (std::size_t r = 1; r < plans.size(); ++r) {
    EXPECT_EQ(plans[r], plans[0]) << "rank " << r << " plan diverged";
  }
  EXPECT_FALSE(plans[0].empty());
}

}  // namespace
}  // namespace spdkfac::core
