// Layer-owned preconditioning (sched::InverseMode::kLayerLBP, the runtime's
// SPD-KFAC): a layer worth owning is inverted, preconditioned and shipped
// as ΔW by one rank, and every other rank applies the received ΔW.  The
// owner runs the same kernels in the same k order as every rank did under
// tensor-granular placement, so training must stay bitwise identical to it
// — serially and under every pool size, at every ISA level, over every
// transport, with π-damping on and off, across a checkpoint taken between
// inverse steps — and a rank that dies while shipping ΔW must surface as
// comm::RankFailure on every survivor instead of a hang.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/fault.hpp"
#include "core/dist_kfac.hpp"
#include "models/model_spec.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "perf/models.hpp"
#include "sched/planner.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/matrix.hpp"
#include "testsupport/backends.hpp"

namespace spdkfac::core {
namespace {

using nn::Tensor4D;
using tensor::Matrix;
using tensor::Rng;

constexpr std::size_t kWidths[] = {6, 12, 10, 4, 3};
constexpr std::size_t kLayers = 4;
constexpr std::size_t kIn = 6, kClasses = 3, kBatch = 8;

struct RunConfig {
  int world = 2;
  std::size_t pool_size = 0;
  /// Cost models under which layers 0-2 are worth owning and layer 3 (5-
  /// and 3-dim factors, both replicated) is not; false: a broadcast so
  /// dear per element that every tensor is replicated and no ΔW pays,
  /// i.e. the tensor-granular placement every layer-owned run must match.
  bool owned = true;
  bool pi_damping = false;
  bool hooked = true;
  std::size_t inverse_update_freq = 1;
  std::optional<tensor::kernels::Isa> isa = std::nullopt;
};

DistKfacOptions options_for(const RunConfig& cfg) {
  DistKfacOptions opts;
  opts.strategy = DistStrategy::kSpdKfac;
  opts.pool_size = cfg.pool_size;
  opts.lr = 0.1;
  opts.damping = 0.1;
  opts.stat_decay = 0.5;
  opts.pi_damping = cfg.pi_damping;
  opts.inverse_update_freq = cfg.inverse_update_freq;
  opts.grad_fusion_threshold = 64;  // several WFBP groups
  opts.inverse_model = perf::InverseModel::cubic(1e-6, 2e-8);
  opts.broadcast_model =
      cfg.owned ? perf::BroadcastModel{{1e-5, 1e-9}}
                : perf::BroadcastModel{{1e-7, 1e-3}};
  // A fixed profile keeps the fusion plan (and with it every reduction
  // order) independent of wall-clock measurements.
  const auto cal = perf::ClusterCalibration::for_topology(
      comm::Topology::flat(cfg.world));
  opts.profile = sched::timing_from_model(models::mlp_spec(kWidths), kBatch,
                                          cal.compute, /*second_order=*/true);
  return opts;
}

/// One rank's training of steps [first, last): restores `restore` first
/// (replaying the data stream past `first` steps) and saves into `save`
/// after the last step, when given.  Returns the final weights.
std::vector<Matrix> train_rank(const RunConfig& cfg, comm::Communicator& comm,
                               int first, int last,
                               const std::string* restore = nullptr,
                               std::string* save = nullptr) {
  if (cfg.isa.has_value()) tensor::kernels::force(*cfg.isa);
  Rng init(2024);
  nn::Sequential model = nn::make_mlp(kWidths, init);
  auto layers = model.preconditioned_layers();
  DistKfacOptimizer optimizer(layers, comm, options_for(cfg));
  nn::SyntheticClassification data(kClasses, kIn, 1, 55);
  Rng shard(300 + comm.rank());
  if (restore != nullptr) {
    std::istringstream in(*restore);
    optimizer.restore_checkpoint(in);
  }
  for (int s = 0; s < first; ++s) data.sample(kBatch, shard);
  nn::SoftmaxCrossEntropy loss;
  for (int s = first; s < last; ++s) {
    auto batch = data.sample(kBatch, shard);
    Tensor4D flat(batch.inputs.n, kIn, 1, 1);
    flat.data = batch.inputs.data;
    const nn::PassHooks hooks =
        cfg.hooked ? optimizer.pass_hooks() : nn::PassHooks{};
    loss.forward(model.forward(flat, hooks), batch.labels);
    model.backward(loss.backward(), hooks);
    optimizer.step();
  }
  if (save != nullptr) {
    std::ostringstream out;
    optimizer.save_checkpoint(out);
    *save = out.str();
  }
  std::vector<Matrix> weights;
  for (auto* l : layers) weights.push_back(l->weight());
  return weights;
}

std::vector<double> flatten(const std::vector<Matrix>& weights) {
  std::vector<double> flat;
  for (const Matrix& w : weights) {
    flat.insert(flat.end(), w.data().begin(), w.data().end());
  }
  return flat;
}

/// Every rank's final weights, flattened, over any backend.
std::vector<std::vector<double>> train_over(comm::TransportKind kind,
                                            const RunConfig& cfg, int steps) {
  return comm::Cluster::launch_collect(
      kind, comm::Topology::flat(cfg.world), [&](comm::Communicator& comm) {
        return flatten(train_rank(cfg, comm, 0, steps));
      });
}

std::vector<std::vector<double>> train(const RunConfig& cfg, int steps) {
  return train_over(comm::TransportKind::kInProcess, cfg, steps);
}

void expect_ranks_agree(const std::vector<std::vector<double>>& ranks,
                        const std::string& context) {
  for (std::size_t r = 1; r < ranks.size(); ++r) {
    EXPECT_EQ(ranks[r], ranks[0]) << context << " rank " << r;
  }
}

std::vector<tensor::kernels::Isa> kernel_levels() {
  std::vector<tensor::kernels::Isa> levels{tensor::kernels::Isa::kScalar};
  if (tensor::kernels::supported(tensor::kernels::Isa::kAvx2)) {
    levels.push_back(tensor::kernels::Isa::kAvx2);
  }
  return levels;
}

/// Restores the process-global active level on scope exit.
class IsaGuard {
 public:
  IsaGuard() : saved_(tensor::kernels::active()) {}
  ~IsaGuard() { tensor::kernels::force(saved_); }

 private:
  tensor::kernels::Isa saved_;
};

/// The runtime's first (factor + inverse) step plan under `cfg` — a pure
/// function of shapes, options and P, planned here the way the optimizer
/// plans it.
sched::IterationPlan first_plan(const RunConfig& cfg) {
  sched::ScheduleInputs inputs;
  inputs.world_size = cfg.world;
  inputs.layers = sched::shapes_from_model(models::mlp_spec(kWidths));
  const DistKfacOptions opts = options_for(cfg);
  inputs.timing = opts.profile;
  sched::ScheduleOptions opt;
  static_cast<sched::PlanShape&>(opt) = opts;
  opt.inverse = sched::InverseMode::kLayerLBP;
  return sched::plan_iteration(
      inputs, opt,
      sched::ScheduleCosts{opts.allreduce_model, opts.broadcast_model,
                           opts.inverse_model,
                           comm::AlgorithmSelector(
                               comm::Topology::flat(cfg.world))});
}

// ---------------------------------------------------------------------------
// Who preconditions what
// ---------------------------------------------------------------------------

TEST(LayerOwned, OwnsTheLayersWorthOwningOnly) {
  for (const int world : {2, 4}) {
    const sched::IterationPlan owned = first_plan({.world = world});
    for (std::size_t l = 0; l < kLayers; ++l) {
      EXPECT_EQ(owned.placement.owned(l), l < 3) << "P=" << world << " " << l;
    }
    const sched::IterationPlan replicated =
        first_plan({.world = world, .owned = false});
    for (std::size_t l = 0; l < kLayers; ++l) {
      EXPECT_FALSE(replicated.placement.owned(l)) << "P=" << world;
    }
  }
}

TEST(LayerOwned, EachOwnedLayerIsPreconditionedOnceAcrossRanks) {
  constexpr int kWorld = 4;
  std::vector<std::atomic<int>> runs(kLayers);
  std::vector<std::vector<char>> holds(kWorld,
                                       std::vector<char>(kLayers, 0));
  std::vector<int> owner(kLayers, -2);
  comm::Cluster::launch(kWorld, [&](comm::Communicator& comm) {
    Rng init(2024);
    nn::Sequential model = nn::make_mlp(kWidths, init);
    auto layers = model.preconditioned_layers();
    DistKfacOptimizer optimizer(layers, comm,
                                options_for({.world = kWorld, .pool_size = 2}));
    optimizer.set_task_listener([&](const sched::Task& task, double, double) {
      if (task.kind == sched::TaskKind::kPrecondition) ++runs[task.layer];
    });
    nn::SyntheticClassification data(kClasses, kIn, 1, 55);
    Rng shard(300 + comm.rank());
    nn::SoftmaxCrossEntropy loss;
    auto batch = data.sample(kBatch, shard);
    Tensor4D flat(batch.inputs.n, kIn, 1, 1);
    flat.data = batch.inputs.data;
    loss.forward(model.forward(flat), batch.labels);
    model.backward(loss.backward());
    optimizer.step();
    for (std::size_t l = 0; l < kLayers; ++l) {
      holds[static_cast<std::size_t>(comm.rank())][l] =
          optimizer.inverse_a(l).empty() ? 0 : 1;
      if (comm.rank() == 0) {
        owner[l] = optimizer.placement().owned(l)
                       ? optimizer.placement().layer_owner[l]
                       : -1;
      }
    }
  });
  ASSERT_GE(owner[0], 0) << "layer 0 should be owned";
  ASSERT_EQ(owner[3], -1) << "layer 3 should be preconditioned everywhere";
  for (std::size_t l = 0; l < kLayers; ++l) {
    const bool owned = owner[l] >= 0;
    EXPECT_EQ(runs[l].load(), owned ? 1 : kWorld) << "layer " << l;
    for (int r = 0; r < kWorld; ++r) {
      // A non-owner never inverts (or receives) an owned layer's factors.
      EXPECT_EQ(holds[static_cast<std::size_t>(r)][l] != 0,
                !owned || owner[l] == r)
          << "layer " << l << " rank " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Bitwise: owned == tensor-granular, under every executor, level and wire
// ---------------------------------------------------------------------------

TEST(LayerOwnedDeterminism, MatchesTensorGranularPlacementBitwise) {
  for (const bool pi : {false, true}) {
    for (const int world : {2, 4}) {
      const std::string ctx = "P=" + std::to_string(world) +
                              (pi ? " pi-damping" : " fixed damping");
      const auto owned =
          train({.world = world, .pool_size = 2, .pi_damping = pi}, 4);
      const auto replicated = train(
          {.world = world, .pool_size = 2, .owned = false, .pi_damping = pi},
          4);
      expect_ranks_agree(owned, ctx);
      EXPECT_EQ(owned[0], replicated[0]) << ctx;
    }
  }
}

TEST(LayerOwnedDeterminism, HookedMatchesPostHocWithInverseEveryTwoSteps) {
  RunConfig hooked{.world = 4, .pool_size = 4, .inverse_update_freq = 2};
  RunConfig posthoc = hooked;
  posthoc.hooked = false;
  const auto a = train(hooked, 5);
  expect_ranks_agree(a, "hooked");
  EXPECT_EQ(train(posthoc, 5)[0], a[0]);
}

class LayerOwnedDeterminismBackend
    : public ::testing::TestWithParam<comm::TransportKind> {
 protected:
  void SetUp() override { SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(GetParam()); }
};

TEST_P(LayerOwnedDeterminismBackend, PoolSizesBitwiseIdenticalAtEveryIsaLevel) {
  const IsaGuard guard;
  for (const tensor::kernels::Isa level : kernel_levels()) {
    for (const bool pi : {false, true}) {
      const std::string ctx =
          testsupport::backend_name(GetParam()) + " isa=" +
          tensor::kernels::to_string(level) + (pi ? " pi" : "");
      RunConfig cfg{.world = 2, .pool_size = 0, .pi_damping = pi,
                    .isa = level};
      const auto serial = train_over(GetParam(), cfg, 3);
      ASSERT_EQ(serial.size(), 2u) << ctx;
      expect_ranks_agree(serial, ctx);
      for (const std::size_t pool : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
        cfg.pool_size = pool;
        EXPECT_EQ(train_over(GetParam(), cfg, 3), serial)
            << ctx << " pool=" << pool;
      }
      RunConfig replicated = cfg;
      replicated.owned = false;
      EXPECT_EQ(train_over(GetParam(), replicated, 3)[0], serial[0]) << ctx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, LayerOwnedDeterminismBackend,
    ::testing::ValuesIn(testsupport::kAllTransports),
    [](const ::testing::TestParamInfo<comm::TransportKind>& info) {
      return testsupport::backend_name(info.param);
    });

// ---------------------------------------------------------------------------
// Checkpoints between inverse steps
// ---------------------------------------------------------------------------

/// Six steps with an inverse step every second one, optionally cut after
/// step 3 — an off-step comes next, so the owners must precondition with
/// the inverses they computed at step 2.  `foreign` restores every rank
/// from rank 0's journal (which holds stale copies of the layers the other
/// ranks own).  Returns every rank's final weights and the inverse_update
/// flag of the first resumed step's plan.
struct Resumed {
  std::vector<std::vector<double>> weights;
  std::vector<char> reinverted;
};

Resumed run_cut(int world, int restore_world, bool foreign) {
  constexpr int kCut = 3, kTotal = 6;
  RunConfig cfg{.world = world, .pool_size = 2, .inverse_update_freq = 2};
  std::vector<std::string> blobs(static_cast<std::size_t>(world));
  comm::Cluster::launch(world, [&](comm::Communicator& comm) {
    train_rank(cfg, comm, 0, kCut, nullptr,
               &blobs[static_cast<std::size_t>(comm.rank())]);
  });
  Resumed out;
  out.weights.resize(static_cast<std::size_t>(restore_world));
  out.reinverted.resize(static_cast<std::size_t>(restore_world));
  cfg.world = restore_world;
  comm::Cluster::launch(restore_world, [&](comm::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const std::string& blob = foreign ? blobs[0] : blobs[r];
    Rng init(2024);
    nn::Sequential model = nn::make_mlp(kWidths, init);
    auto layers = model.preconditioned_layers();
    DistKfacOptimizer optimizer(layers, comm, options_for(cfg));
    std::istringstream in(blob);
    optimizer.restore_checkpoint(in);
    nn::SyntheticClassification data(kClasses, kIn, 1, 55);
    Rng shard(300 + comm.rank());
    for (int s = 0; s < kCut; ++s) data.sample(kBatch, shard);
    nn::SoftmaxCrossEntropy loss;
    for (int s = kCut; s < kTotal; ++s) {
      auto batch = data.sample(kBatch, shard);
      Tensor4D flat(batch.inputs.n, kIn, 1, 1);
      flat.data = batch.inputs.data;
      const nn::PassHooks hooks = optimizer.pass_hooks();
      loss.forward(model.forward(flat, hooks), batch.labels);
      model.backward(loss.backward(), hooks);
      optimizer.step();
      if (s == kCut) out.reinverted[r] = optimizer.plan().inverse_update;
    }
    std::vector<Matrix> w;
    for (auto* l : layers) w.push_back(l->weight());
    out.weights[r] = flatten(w);
  });
  return out;
}

TEST(LayerOwnedCheckpoint, OddStepRestoreMatchesUninterruptedBitwise) {
  const auto uninterrupted =
      train({.world = 2, .pool_size = 2, .inverse_update_freq = 2}, 6);
  const Resumed resumed = run_cut(2, 2, /*foreign=*/false);
  expect_ranks_agree(resumed.weights, "resumed");
  EXPECT_EQ(resumed.weights[0], uninterrupted[0]);
  // Every rank held its own inverses: nothing was recomputed off-schedule.
  for (const char flag : resumed.reinverted) EXPECT_EQ(flag, 0);
}

TEST(LayerOwnedCheckpoint, ForeignOrResizedJournalReinvertsFirst) {
  for (const auto& [world, restore_world] :
       {std::pair{2, 2}, std::pair{2, 4}, std::pair{4, 2}}) {
    const std::string ctx = "P=" + std::to_string(world) + " -> " +
                            std::to_string(restore_world);
    const Resumed resumed = run_cut(world, restore_world, /*foreign=*/true);
    expect_ranks_agree(resumed.weights, ctx);
    // Some rank would have preconditioned with rank 0's stale copy, so
    // the first resumed step inverts again — on every rank alike.
    for (const char flag : resumed.reinverted) EXPECT_EQ(flag, 1) << ctx;
    for (const double w : resumed.weights[0]) {
      ASSERT_TRUE(std::isfinite(w)) << ctx;
    }
  }
}

// ---------------------------------------------------------------------------
// A dead owner while it ships ΔW
// ---------------------------------------------------------------------------

/// Sends `rank` makes in `task` under P ranks: the ring all-reduce's
/// reduce-scatter and all-gather (P-1 each), or its children in the
/// binomial broadcast tree (mirrors comm::Communicator).
std::size_t sends_in(const sched::Task& task, int rank, int world) {
  if (task.kind != sched::TaskKind::kBroadcast) {
    return 2 * static_cast<std::size_t>(world - 1);
  }
  const int relative = (rank - task.rank + world) % world;
  int mask = 1;
  while (mask < world && (relative & mask) == 0) mask <<= 1;
  std::size_t sends = 0;
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (relative + mask < world) ++sends;
  }
  return sends;
}

class LayerOwnedFaultMatrix
    : public ::testing::TestWithParam<comm::TransportKind> {
 protected:
  void SetUp() override { SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(GetParam()); }
};

TEST_P(LayerOwnedFaultMatrix, OwnerKilledDuringDeltaBroadcastFailsEverySurvivor) {
  constexpr int kWorld = 4;
  const RunConfig cfg{.world = kWorld, .pool_size = 2};
  const sched::IterationPlan plan = first_plan(cfg);
  // The first ΔW of step 0 and its owner's sends before it.
  int target = -1;
  std::size_t before = 0;
  for (const int id : plan.collective_order()) {
    const sched::Task& task = plan.task(id);
    if (task.kind == sched::TaskKind::kBroadcast &&
        task.family == sched::Family::kGrad) {
      target = id;
      break;
    }
  }
  ASSERT_GE(target, 0) << "no layer is owned";
  const int victim = plan.task(target).rank;
  for (const int id : plan.collective_order()) {
    if (id == target) break;
    before += sends_in(plan.task(id), victim, kWorld);
  }

  comm::LaunchOptions opts;
  opts.comm_timeout_s = 0.4;
  opts.collect_timeout_s = 30.0;  // backstop: a wedged cell fails, not hangs
  opts.fault.rank = victim;
  opts.fault.op = comm::FaultOp::kSend;
  opts.fault.action = comm::FaultAction::kKill;
  opts.fault.after_ops = before;
  try {
    comm::Cluster::launch_collect(
        GetParam(), comm::Topology::flat(kWorld),
        [&](comm::Communicator& comm) -> std::vector<double> {
          Rng init(2024);
          nn::Sequential model = nn::make_mlp(kWidths, init);
          auto layers = model.preconditioned_layers();
          DistKfacOptimizer optimizer(layers, comm, options_for(cfg));
          nn::SyntheticClassification data(kClasses, kIn, 1, 55);
          Rng shard(300 + comm.rank());
          nn::SoftmaxCrossEntropy loss;
          auto batch = data.sample(kBatch, shard);
          Tensor4D flat(batch.inputs.n, kIn, 1, 1);
          flat.data = batch.inputs.data;
          const nn::PassHooks hooks = optimizer.pass_hooks();
          loss.forward(model.forward(flat, hooks), batch.labels);
          model.backward(loss.backward(), hooks);
          try {
            optimizer.step();
          } catch (const comm::RankFailure& failure) {
            return {1.0, static_cast<double>(failure.failed_rank()),
                    static_cast<double>(failure.plan_task())};
          }
          return {0.0};
        },
        opts);
    FAIL() << "the owner's death must surface as LaunchFailure";
  } catch (const comm::LaunchFailure& failure) {
    const auto& results = failure.partial_results();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kWorld));
    bool victim_named = false;
    for (int r = 0; r < kWorld; ++r) {
      if (r == victim) continue;
      const auto& res = results[static_cast<std::size_t>(r)];
      ASSERT_EQ(res.size(), 3u) << "rank " << r << " never raised";
      EXPECT_EQ(res[0], 1.0) << "rank " << r;
      EXPECT_EQ(static_cast<int>(res[2]), target)
          << "rank " << r << " failed outside the ΔW broadcast";
      victim_named = victim_named || static_cast<int>(res[1]) == victim;
    }
    EXPECT_TRUE(victim_named) << "no survivor named the owner";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, LayerOwnedFaultMatrix,
    ::testing::ValuesIn(testsupport::kAllTransports),
    [](const ::testing::TestParamInfo<comm::TransportKind>& info) {
      return testsupport::backend_name(info.param);
    });

}  // namespace
}  // namespace spdkfac::core
