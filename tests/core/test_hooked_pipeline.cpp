// Hook-mode distributed K-FAC (the SPDKFACOptimizer architecture of
// Fig. 6): factor and gradient communication submitted inline with the
// forward/backward passes must leave the numerics untouched and the
// overlap observable.
#include <gtest/gtest.h>

#include "comm/cluster.hpp"
#include "core/dist_kfac.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "tensor/matrix.hpp"
#include "testsupport/matrix_helpers.hpp"

namespace spdkfac::core {
namespace {

using nn::Tensor4D;
using tensor::Matrix;
using tensor::Rng;

constexpr std::size_t kIn = 6, kHidden = 10, kClasses = 3;
constexpr std::uint64_t kModelSeed = 777;
constexpr std::uint64_t kDataSeed = 31;

nn::Sequential make_model() {
  Rng rng(kModelSeed);
  const std::size_t widths[] = {kIn, kHidden, kHidden, kClasses};
  return nn::make_mlp(widths, rng);
}

Tensor4D flatten(const nn::Batch& batch) {
  Tensor4D flat(batch.inputs.n, kIn, 1, 1);
  flat.data = batch.inputs.data;
  return flat;
}

/// Trains with or without hooks; returns rank-0 final weights.
std::vector<Matrix> train(int world, DistStrategy strategy, int steps,
                          bool hooked, std::size_t factor_freq = 1) {
  std::vector<Matrix> weights;
  comm::Cluster::launch(world, [&](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    DistKfacOptions opts;
    opts.strategy = strategy;
    opts.lr = 0.1;
    opts.damping = 0.1;
    opts.stat_decay = 0.5;
    opts.factor_update_freq = factor_freq;
    DistKfacOptimizer optimizer(layers, comm, opts);
    nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
    Rng shard(900 + comm.rank());
    nn::SoftmaxCrossEntropy loss;
    for (int s = 0; s < steps; ++s) {
      auto batch = data.sample(8, shard);
      if (hooked) {
        const nn::PassHooks hooks = optimizer.pass_hooks();
        loss.forward(model.forward(flatten(batch), hooks), batch.labels);
        model.backward(loss.backward(), hooks);
      } else {
        loss.forward(model.forward(flatten(batch)), batch.labels);
        model.backward(loss.backward());
      }
      optimizer.step();
    }
    if (comm.rank() == 0) {
      for (auto* l : layers) weights.push_back(l->weight());
    }
  });
  return weights;
}

class HookedStrategy : public ::testing::TestWithParam<DistStrategy> {};

TEST_P(HookedStrategy, HookedMatchesPostHocExactly) {
  // Same collectives in the same order over the same buffers => the hooked
  // path must match the post-hoc path bit-for-bit under the bulk
  // strategies.  SPD-KFAC's fusion plan derives from *measured* factor
  // times, so group boundaries (and hence all-reduce reassociation) can
  // vary between runs: compare within floating-point reassociation noise.
  const auto plain = train(3, GetParam(), 3, /*hooked=*/false);
  const auto hooked = train(3, GetParam(), 3, /*hooked=*/true);
  ASSERT_EQ(plain.size(), hooked.size());
  for (std::size_t l = 0; l < plain.size(); ++l) {
    if (GetParam() == DistStrategy::kSpdKfac) {
      EXPECT_TRUE(testsupport::allclose(hooked[l], plain[l], 1e-9, 1e-11))
          << "layer " << l << " diff "
          << tensor::max_abs_diff(plain[l], hooked[l]);
    } else {
      EXPECT_EQ(tensor::max_abs_diff(plain[l], hooked[l]), 0.0)
          << to_string(GetParam()) << " layer " << l;
    }
  }
}

TEST_P(HookedStrategy, HookedKeepsRanksConsistent) {
  const int world = 4;
  std::vector<std::vector<Matrix>> all(world);
  comm::Cluster::launch(world, [&](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    DistKfacOptions opts;
    opts.strategy = GetParam();
    DistKfacOptimizer optimizer(layers, comm, opts);
    nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
    Rng shard(40 + comm.rank());
    nn::SoftmaxCrossEntropy loss;
    for (int s = 0; s < 2; ++s) {
      auto batch = data.sample(8, shard);
      const nn::PassHooks hooks = optimizer.pass_hooks();
      loss.forward(model.forward(flatten(batch), hooks), batch.labels);
      model.backward(loss.backward(), hooks);
      optimizer.step();
    }
    for (auto* l : layers) all[comm.rank()].push_back(l->weight());
  });
  for (int r = 1; r < world; ++r) {
    for (std::size_t l = 0; l < all[0].size(); ++l) {
      EXPECT_EQ(tensor::max_abs_diff(all[r][l], all[0][l]), 0.0)
          << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, HookedStrategy,
                         ::testing::Values(DistStrategy::kDKfac,
                                           DistStrategy::kMpdKfac,
                                           DistStrategy::kSpdKfac),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

TEST(HookedPipeline, FactorUpdateFreqSkipsFactorWork) {
  // With factor_update_freq = 2 the hooked path must still work on the
  // off-steps (gradients flow, factors reused).
  const auto weights =
      train(2, DistStrategy::kSpdKfac, 4, /*hooked=*/true, /*freq=*/2);
  const auto plain =
      train(2, DistStrategy::kSpdKfac, 4, /*hooked=*/false, /*freq=*/2);
  for (std::size_t l = 0; l < weights.size(); ++l) {
    EXPECT_TRUE(testsupport::allclose(weights[l], plain[l], 1e-9, 1e-11));
  }
}

TEST(HookedPipeline, SingleWorkerHooksAreHarmless) {
  const auto hooked = train(1, DistStrategy::kSpdKfac, 3, true);
  const auto plain = train(1, DistStrategy::kSpdKfac, 3, false);
  for (std::size_t l = 0; l < hooked.size(); ++l) {
    EXPECT_EQ(tensor::max_abs_diff(hooked[l], plain[l]), 0.0);
  }
}

TEST(HookedPipeline, ForgettingBackwardHooksIsDetected) {
  comm::Cluster::launch(2, [](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    DistKfacOptions opts;
    opts.strategy = DistStrategy::kDKfac;  // bulk comm: no pipelined waits
    DistKfacOptimizer optimizer(layers, comm, opts);
    nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
    Rng shard(60 + comm.rank());
    nn::SoftmaxCrossEntropy loss;
    auto batch = data.sample(4, shard);
    const nn::PassHooks hooks = optimizer.pass_hooks();
    loss.forward(model.forward(flatten(batch), hooks), batch.labels);
    model.backward(loss.backward());  // hooks forgotten here
    EXPECT_THROW(optimizer.step(), std::logic_error);
    // The abandoned dataflow poisons the optimizer: further steps refuse
    // with a clear error (peers' collective state diverged) instead of
    // wedging; reconstruction is the only recovery.
    EXPECT_THROW(optimizer.step(), std::logic_error);
  });
}

TEST(HookedPipeline, SubmitsCommDuringBackwardPass) {
  // Observability of the overlap: under SPD-KFAC at least one A-group
  // all-reduce must have *completed* before the backward pass ends — i.e.
  // communication really ran concurrently with computation.
  comm::Cluster::launch(2, [](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    DistKfacOptions opts;
    opts.strategy = DistStrategy::kSpdKfac;
    DistKfacOptimizer optimizer(layers, comm, opts);
    nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
    Rng shard(50 + comm.rank());
    nn::SoftmaxCrossEntropy loss;

    auto batch = data.sample(8, shard);
    const nn::PassHooks hooks = optimizer.pass_hooks();
    loss.forward(model.forward(flatten(batch), hooks), batch.labels);
    // A-pass groups were submitted during forward (layer-wise on step 0);
    // by the time backward ends they should be complete without any wait()
    // from our side.
    model.backward(loss.backward(), hooks);
    EXPECT_GT(optimizer.last_a_groups().size(), 0u);
    optimizer.step();
    EXPECT_EQ(optimizer.steps(), 1u);
  });
}

}  // namespace
}  // namespace spdkfac::core
