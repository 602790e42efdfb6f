// End-to-end training under compressed collectives — the regression suite
// for the top-k error-feedback gradient path and its persistence:
//
//   * convergence: a small MLP trained with grad_codec=kTopK (+ error
//     feedback) must reach a final loss within a fixed tolerance of the
//     lossless run — the EF residuals recover the sparsification loss
//     across steps;
//   * determinism: compressed training is bitwise identical across pool
//     sizes and across both transport backends (the deterministic top-k
//     selection and the rank-ordered compressed reduction leave no
//     ordering freedom);
//   * persistence: checkpoint/restore mid-run — with the per-layer EF
//     residuals riding the journal as kGradResidual records — resumes
//     bitwise identically to the uninterrupted run, and pre-compression
//     journals (no residual records) still restore into a compressed
//     optimizer (zeroed residuals).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/codec.hpp"
#include "core/dist_kfac.hpp"
#include "models/model_spec.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "perf/models.hpp"
#include "sched/planner.hpp"
#include "tensor/matrix.hpp"
#include "testsupport/backends.hpp"

namespace spdkfac::core {
namespace {

using nn::Tensor4D;
using tensor::Matrix;
using tensor::Rng;

constexpr std::size_t kWidths[] = {6, 12, 10, 3};
constexpr std::size_t kIn = 6, kClasses = 3, kBatch = 8;

struct RunConfig {
  int world = 2;
  std::size_t pool_size = 1;
  int steps = 4;
  comm::Codec grad_codec = comm::Codec::kNone;
  double topk_ratio = 0.2;
};

DistKfacOptions options_for(const RunConfig& cfg,
                            const models::ModelSpec& spec,
                            const perf::ClusterCalibration& cal) {
  DistKfacOptions opts;
  opts.strategy = DistStrategy::kSpdKfac;
  opts.pool_size = cfg.pool_size;
  opts.lr = 0.1;
  opts.damping = 0.1;
  opts.stat_decay = 0.5;
  opts.grad_fusion_threshold = 64;  // several WFBP groups
  opts.grad_codec = cfg.grad_codec;
  opts.topk_ratio = cfg.topk_ratio;
  // Fixed profile: schedules must not depend on wall-clock measurements.
  opts.profile = sched::timing_from_model(spec, kBatch, cal.compute,
                                          /*second_order=*/true);
  return opts;
}

/// The per-rank training body: `cfg.steps` steps, returning final weights
/// and, when `loss_out` is given, the last step's training loss.
std::vector<Matrix> train_rank(const RunConfig& cfg, comm::Communicator& comm,
                               double* loss_out = nullptr) {
  const models::ModelSpec spec = models::mlp_spec(kWidths);
  const auto cal =
      perf::ClusterCalibration::for_topology(comm::Topology::flat(cfg.world));
  Rng init(2024);
  nn::Sequential model = nn::make_mlp(kWidths, init);
  auto layers = model.preconditioned_layers();
  DistKfacOptimizer optimizer(layers, comm, options_for(cfg, spec, cal));

  nn::SyntheticClassification data(kClasses, kIn, 1, 55);
  Rng shard(300 + comm.rank());
  nn::SoftmaxCrossEntropy loss;
  double last_loss = 0.0;
  for (int s = 0; s < cfg.steps; ++s) {
    auto batch = data.sample(kBatch, shard);
    Tensor4D flat(batch.inputs.n, kIn, 1, 1);
    flat.data = batch.inputs.data;
    last_loss = loss.forward(model.forward(flat), batch.labels);
    model.backward(loss.backward());
    optimizer.step();
  }
  if (loss_out != nullptr) *loss_out = last_loss;
  std::vector<Matrix> weights;
  for (auto* l : layers) weights.push_back(l->weight());
  return weights;
}

std::vector<Matrix> train(const RunConfig& cfg, double* loss_out = nullptr) {
  std::vector<Matrix> weights;
  comm::Cluster::launch(cfg.world, [&](comm::Communicator& comm) {
    double rank_loss = 0.0;
    auto rank_weights = train_rank(cfg, comm, &rank_loss);
    if (comm.rank() == 0) {
      weights = std::move(rank_weights);
      if (loss_out != nullptr) *loss_out = rank_loss;
    }
  });
  return weights;
}

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

void expect_bitwise_equal(const std::vector<Matrix>& a,
                          const std::vector<Matrix>& b,
                          const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t l = 0; l < a.size(); ++l) {
    EXPECT_EQ(tensor::max_abs_diff(a[l], b[l]), 0.0)
        << context << " layer " << l;
  }
}

RunConfig compressed_config() {
  RunConfig cfg;
  cfg.grad_codec = comm::Codec::kTopK;
  cfg.topk_ratio = 0.2;
  return cfg;
}

// ---------------------------------------------------------------------------
// Convergence: error feedback recovers the sparsification loss.
// ---------------------------------------------------------------------------

TEST(CompressedTraining, TopKWithErrorFeedbackTracksLosslessLoss) {
  RunConfig lossless;
  lossless.steps = 10;
  double loss_none = 0.0, loss_first = 0.0;
  train(lossless, &loss_none);
  RunConfig first = lossless;
  first.steps = 1;
  train(first, &loss_first);
  ASSERT_LT(loss_none, loss_first);  // the lossless baseline itself learns

  RunConfig compressed = compressed_config();
  compressed.steps = 10;
  double loss_topk = 0.0;
  train(compressed, &loss_topk);

  // Converges (well below the step-1 loss) and lands within a fixed band
  // of the lossless optimum — EF keeps the sparsifier honest: without the
  // residual feedback, 80% of every small layer's gradient would simply
  // vanish each step.
  EXPECT_LT(loss_topk, 0.5 * loss_first + 0.5 * loss_none)
      << "top-k+EF did not converge (lossless " << loss_none << ", step-1 "
      << loss_first << ", topk " << loss_topk << ")";
  EXPECT_NEAR(loss_topk, loss_none, 0.25)
      << "top-k+EF final loss drifted from the lossless run";
}

// ---------------------------------------------------------------------------
// Determinism: pool sizes, repeats, transports.
// ---------------------------------------------------------------------------

TEST(CompressedTraining, PoolSizesProduceBitwiseIdenticalModels) {
  RunConfig cfg = compressed_config();
  cfg.pool_size = 1;
  const auto serial = train(cfg);
  for (const std::size_t pool : {std::size_t{2}, std::size_t{4}}) {
    cfg.pool_size = pool;
    expect_bitwise_equal(train(cfg), serial,
                         "compressed pool=" + std::to_string(pool));
  }
}

TEST(CompressedTraining, RepeatedRunsAreBitwiseStable) {
  RunConfig cfg = compressed_config();
  cfg.world = 4;
  cfg.pool_size = 4;
  expect_bitwise_equal(train(cfg), train(cfg), "compressed repeat");
}

class CompressedBackend
    : public ::testing::TestWithParam<comm::TransportKind> {
 protected:
  void SetUp() override {
    SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(GetParam());
  }
};

TEST_P(CompressedBackend, TrainingMatchesInProcessBitwise) {
  RunConfig cfg = compressed_config();
  cfg.world = 4;
  cfg.pool_size = 2;
  const auto reference = train(cfg);
  std::vector<double> flat;
  for (const Matrix& w : reference) {
    flat.insert(flat.end(), w.data().begin(), w.data().end());
  }
  const auto results = train_over(GetParam(), cfg);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t r = 0; r < results.size(); ++r) {
    EXPECT_EQ(results[r], flat)
        << testsupport::backend_name(GetParam()) << " rank " << r
        << " diverged from the in-process compressed run";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, CompressedBackend,
    ::testing::ValuesIn(testsupport::kAllTransports),
    [](const ::testing::TestParamInfo<comm::TransportKind>& info) {
      return testsupport::backend_name(info.param);
    });

// ---------------------------------------------------------------------------
// Persistence: EF residuals ride the checkpoint journal.
// ---------------------------------------------------------------------------

/// Phase 1 trains `cut` steps and saves; phase 2 restores into a fresh
/// optimizer, replays the data stream, and finishes.  The residuals at the
/// cut are nonzero (top-k shipped only 20% of each gradient), so a resume
/// that dropped them would visibly diverge from the straight-through run.
std::vector<Matrix> train_resumed(const RunConfig& base) {
  constexpr int kCut = 2;
  std::vector<std::string> blobs(static_cast<std::size_t>(base.world));
  comm::Cluster::launch(base.world, [&](comm::Communicator& comm) {
    RunConfig cfg = base;
    cfg.steps = kCut;
    const models::ModelSpec spec = models::mlp_spec(kWidths);
    const auto cal = perf::ClusterCalibration::for_topology(
        comm::Topology::flat(cfg.world));
    Rng init(2024);
    nn::Sequential model = nn::make_mlp(kWidths, init);
    auto layers = model.preconditioned_layers();
    DistKfacOptimizer optimizer(layers, comm, options_for(cfg, spec, cal));
    nn::SyntheticClassification data(kClasses, kIn, 1, 55);
    Rng shard(300 + comm.rank());
    nn::SoftmaxCrossEntropy loss;
    for (int s = 0; s < kCut; ++s) {
      auto batch = data.sample(kBatch, shard);
      Tensor4D flat(batch.inputs.n, kIn, 1, 1);
      flat.data = batch.inputs.data;
      loss.forward(model.forward(flat), batch.labels);
      model.backward(loss.backward());
      optimizer.step();
    }
    std::ostringstream out;
    optimizer.save_checkpoint(out);
    blobs[static_cast<std::size_t>(comm.rank())] = out.str();
  });

  std::vector<Matrix> weights;
  comm::Cluster::launch(base.world, [&](comm::Communicator& comm) {
    const models::ModelSpec spec = models::mlp_spec(kWidths);
    const auto cal = perf::ClusterCalibration::for_topology(
        comm::Topology::flat(base.world));
    Rng init(2024);
    nn::Sequential model = nn::make_mlp(kWidths, init);
    auto layers = model.preconditioned_layers();
    DistKfacOptimizer optimizer(layers, comm, options_for(base, spec, cal));
    std::istringstream in(blobs[static_cast<std::size_t>(comm.rank())]);
    optimizer.restore_checkpoint(in);
    nn::SyntheticClassification data(kClasses, kIn, 1, 55);
    Rng shard(300 + comm.rank());
    nn::SoftmaxCrossEntropy loss;
    for (int s = 0; s < kCut; ++s) data.sample(kBatch, shard);  // replay
    for (int s = kCut; s < base.steps; ++s) {
      auto batch = data.sample(kBatch, shard);
      Tensor4D flat(batch.inputs.n, kIn, 1, 1);
      flat.data = batch.inputs.data;
      loss.forward(model.forward(flat), batch.labels);
      model.backward(loss.backward());
      optimizer.step();
    }
    if (comm.rank() == 0) {
      for (auto* l : layers) weights.push_back(l->weight());
    }
  });
  return weights;
}

TEST(CompressedTraining, CheckpointResumeIsBitwiseStraightThrough) {
  RunConfig cfg = compressed_config();
  cfg.steps = 4;
  cfg.pool_size = 2;
  const auto straight = train(cfg);
  const auto resumed = train_resumed(cfg);
  expect_bitwise_equal(resumed, straight, "compressed checkpoint resume");
}

TEST(CompressedTraining, LosslessJournalRestoresIntoCompressedOptimizer) {
  // Backward compatibility: a journal written without residual records
  // (lossless run, or any pre-compression checkpoint) restores into a
  // top-k optimizer — residuals simply start from zero.
  comm::Cluster::launch(2, [&](comm::Communicator& comm) {
    const models::ModelSpec spec = models::mlp_spec(kWidths);
    const auto cal =
        perf::ClusterCalibration::for_topology(comm::Topology::flat(2));
    RunConfig lossless;
    std::string blob;
    {
      Rng init(2024);
      nn::Sequential model = nn::make_mlp(kWidths, init);
      auto layers = model.preconditioned_layers();
      DistKfacOptimizer optimizer(layers, comm,
                                  options_for(lossless, spec, cal));
      nn::SyntheticClassification data(kClasses, kIn, 1, 55);
      Rng shard(300 + comm.rank());
      nn::SoftmaxCrossEntropy loss;
      auto batch = data.sample(kBatch, shard);
      Tensor4D flat(batch.inputs.n, kIn, 1, 1);
      flat.data = batch.inputs.data;
      loss.forward(model.forward(flat), batch.labels);
      model.backward(loss.backward());
      optimizer.step();
      std::ostringstream out;
      optimizer.save_checkpoint(out);
      blob = out.str();
    }
    RunConfig compressed = compressed_config();
    Rng init(2024);
    nn::Sequential model = nn::make_mlp(kWidths, init);
    auto layers = model.preconditioned_layers();
    DistKfacOptimizer optimizer(layers, comm,
                                options_for(compressed, spec, cal));
    std::istringstream in(blob);
    EXPECT_NO_THROW(optimizer.restore_checkpoint(in));
  });
}

}  // namespace
}  // namespace spdkfac::core
