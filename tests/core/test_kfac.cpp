// Correctness of the single-process K-FAC optimizer: factor construction,
// damping, preconditioning algebra, and actual optimization behaviour on a
// synthetic task.
#include "core/kfac_optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "comm/cluster.hpp"
#include "core/dist_kfac.hpp"
#include "nn/data.hpp"
#include "testsupport/linalg_reference.hpp"
#include "testsupport/matrix_helpers.hpp"

namespace spdkfac::core {
namespace {

using nn::Tensor4D;
using tensor::Matrix;
using tensor::Rng;

TEST(ComputeFactors, MatchHandComputedMoments) {
  Rng rng(1);
  nn::Linear fc("fc", 2, 2, /*bias=*/true, rng);
  Tensor4D x(2, 2, 1, 1);
  x.data = {1.0, 2.0, 3.0, 4.0};
  fc.forward(x);
  Tensor4D dy(2, 2, 1, 1);
  dy.data = {1.0, 0.0, 0.0, 1.0};
  fc.backward(dy);

  // a rows: [1,2,1], [3,4,1];  A = a^T a / 2.
  const Matrix a = compute_factor_a(fc);
  EXPECT_DOUBLE_EQ(a(0, 0), (1.0 + 9.0) / 2);
  EXPECT_DOUBLE_EQ(a(0, 1), (2.0 + 12.0) / 2);
  EXPECT_DOUBLE_EQ(a(2, 2), 1.0);
  EXPECT_TRUE(testsupport::is_symmetric(a));

  // g rows: [1,0], [0,1];  G = g^T g / 2 = I/2.
  const Matrix g = compute_factor_g(fc);
  EXPECT_TRUE(testsupport::allclose(g, Matrix::identity(2) * 0.5));
}

TEST(ComputeFactors, ThrowWithoutCapturedPass) {
  Rng rng(2);
  nn::Linear fc("fc", 2, 2, true, rng);
  EXPECT_THROW(compute_factor_a(fc), std::logic_error);
  EXPECT_THROW(compute_factor_g(fc), std::logic_error);
}

TEST(RunningAverage, InitializesThenDecays) {
  Matrix state;
  Matrix first{{2.0}};
  update_running_average(state, first, 0.9);
  EXPECT_DOUBLE_EQ(state(0, 0), 2.0);  // first sample taken whole
  Matrix second{{4.0}};
  update_running_average(state, second, 0.9);
  EXPECT_DOUBLE_EQ(state(0, 0), 0.9 * 2.0 + 0.1 * 4.0);
}

TEST(KfacOptimizer, RejectsEmptyLayerList) {
  EXPECT_THROW(KfacOptimizer({}, {}), std::invalid_argument);
}

TEST(KfacOptimizer, StepAppliesPreconditionedUpdate) {
  Rng rng(3);
  nn::Sequential model;
  model.add(std::make_unique<nn::Linear>("fc", 3, 2, true, rng));
  auto layers = model.preconditioned_layers();

  KfacOptions opts;
  opts.lr = 0.1;
  opts.damping = 0.5;
  opts.stat_decay = 0.0;  // use the fresh factors directly
  KfacOptimizer kfac(layers, opts);

  Tensor4D x(4, 3, 1, 1);
  tensor::fill_normal(x.data, rng);
  nn::SoftmaxCrossEntropy loss;
  std::vector<int> labels{0, 1, 0, 1};
  loss.forward(model.forward(x), labels);
  model.backward(loss.backward());

  const Matrix w_before = layers[0]->weight();
  const Matrix grad = layers[0]->weight_grad();
  const Matrix a = compute_factor_a(*layers[0]);
  const Matrix g = compute_factor_g(*layers[0]);
  kfac.step();

  // Expected: w - lr * (G+gI)^-1 grad (A+gI)^-1.
  const Matrix delta = tensor::matmul(
      testsupport::damped_inverse(g, 0.5),
      tensor::matmul(grad, testsupport::damped_inverse(a, 0.5)));
  const Matrix expect = w_before - delta * 0.1;
  EXPECT_TRUE(testsupport::allclose(layers[0]->weight(), expect, 1e-10, 1e-12));
  EXPECT_EQ(kfac.steps(), 1u);
}

TEST(KfacOptimizer, InverseUpdateFreqSkipsReinversion) {
  Rng rng(5);
  nn::Sequential model;
  model.add(std::make_unique<nn::Linear>("fc", 3, 3, true, rng));
  auto layers = model.preconditioned_layers();
  KfacOptions opts;
  opts.inverse_update_freq = 2;
  KfacOptimizer kfac(layers, opts);

  nn::SyntheticClassification data(3, 3, 1, 7);
  nn::SoftmaxCrossEntropy loss;
  Rng data_rng(11);

  auto pass = [&] {
    auto batch = data.sample(6, data_rng);
    nn::Tensor4D flat(batch.inputs.n, 3, 1, 1);
    flat.data = batch.inputs.data;
    loss.forward(model.forward(flat), batch.labels);
    model.backward(loss.backward());
  };

  pass();
  kfac.step();
  const Matrix inv_after_1 = kfac.cholesky_a(0);
  pass();
  kfac.step();  // step 1: inverses NOT refreshed (freq 2)
  EXPECT_EQ(tensor::max_abs_diff(kfac.cholesky_a(0), inv_after_1), 0.0);
  pass();
  kfac.step();  // step 2: refreshed
  EXPECT_GT(tensor::max_abs_diff(kfac.cholesky_a(0), inv_after_1), 0.0);
}

TEST(KfacOptimizer, WithHugeDampingApproachesScaledSgd) {
  // As damping -> inf, (F + gI)^-1 -> I/g, so K-FAC's step direction
  // approaches SGD's gradient direction (scaled by 1/g^2 here).
  Rng rng(7);
  nn::Sequential model;
  model.add(std::make_unique<nn::Linear>("fc", 4, 2, false, rng));
  auto layers = model.preconditioned_layers();
  const double g = 1e6;
  KfacOptions opts;
  opts.lr = 1.0;
  opts.damping = g;
  opts.stat_decay = 0.0;
  KfacOptimizer kfac(layers, opts);

  Tensor4D x(3, 4, 1, 1);
  tensor::fill_normal(x.data, rng);
  nn::SoftmaxCrossEntropy loss;
  std::vector<int> labels{0, 1, 1};
  loss.forward(model.forward(x), labels);
  model.backward(loss.backward());

  const Matrix w_before = layers[0]->weight();
  const Matrix grad = layers[0]->weight_grad();
  kfac.step();
  const Matrix applied = (w_before - layers[0]->weight()) * (g * g);
  EXPECT_TRUE(testsupport::allclose(applied, grad, 1e-3, 1e-9));
}

TEST(KfacOptimizer, ReducesLossOnSyntheticTask) {
  Rng rng(9);
  const std::size_t widths[] = {8, 16, 4};
  nn::Sequential model = nn::make_mlp(widths, rng);
  KfacOptions opts;
  opts.lr = 0.2;
  opts.damping = 0.1;
  KfacOptimizer kfac(model.preconditioned_layers(), opts);

  nn::SyntheticClassification data(4, 8, 1, 21, /*noise=*/0.2);
  nn::SoftmaxCrossEntropy loss;
  Rng data_rng(33);

  double first_loss = 0.0, last_loss = 0.0;
  for (int step = 0; step < 30; ++step) {
    auto batch = data.sample(32, data_rng);
    nn::Tensor4D flat(batch.inputs.n, 8, 1, 1);
    flat.data = batch.inputs.data;
    const double l = loss.forward(model.forward(flat), batch.labels);
    model.backward(loss.backward());
    kfac.step();
    if (step == 0) first_loss = l;
    last_loss = l;
  }
  EXPECT_LT(last_loss, 0.5 * first_loss);
}

TEST(KfacOptimizer, ConvergesFasterThanSgdPerIteration) {
  // The motivation for second-order training (paper Section I): fewer
  // iterations to a given loss.  Train identical models with SGD and K-FAC
  // on the same stream and compare losses after a fixed budget.
  auto run = [](bool use_kfac) {
    Rng rng(77);
    const std::size_t widths[] = {8, 16, 4};
    nn::Sequential model = nn::make_mlp(widths, rng);
    auto layers = model.preconditioned_layers();
    KfacOptions kopts;
    kopts.lr = 0.2;
    kopts.damping = 0.1;
    KfacOptimizer kfac(layers, kopts);
    SgdOptimizer sgd(layers, /*lr=*/0.2);

    nn::SyntheticClassification data(4, 8, 1, 5, 0.2);
    nn::SoftmaxCrossEntropy loss;
    Rng data_rng(13);
    double total_last5 = 0.0;
    for (int step = 0; step < 25; ++step) {
      auto batch = data.sample(32, data_rng);
      nn::Tensor4D flat(batch.inputs.n, 8, 1, 1);
      flat.data = batch.inputs.data;
      const double l = loss.forward(model.forward(flat), batch.labels);
      model.backward(loss.backward());
      if (use_kfac) {
        kfac.step();
      } else {
        sgd.step();
      }
      if (step >= 20) total_last5 += l;
    }
    return total_last5 / 5.0;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(KlClip, DisabledReturnsOne) {
  std::vector<Matrix> deltas{Matrix{{1.0, 2.0}}};
  std::vector<Matrix> grads{Matrix{{3.0, 4.0}}};
  EXPECT_DOUBLE_EQ(kl_clip_factor(deltas, grads, 0.1, 0.0), 1.0);
}

TEST(KlClip, ClampsLargeUpdates) {
  // <delta, grad> = 1*3 + 2*4 = 11; lr^2 * 11 = 0.11; with kl_clip = 0.01,
  // nu = sqrt(0.01 / 0.11).
  std::vector<Matrix> deltas{Matrix{{1.0, 2.0}}};
  std::vector<Matrix> grads{Matrix{{3.0, 4.0}}};
  const double nu = kl_clip_factor(deltas, grads, 0.1, 0.01);
  EXPECT_NEAR(nu, std::sqrt(0.01 / 0.11), 1e-12);
  EXPECT_LT(nu, 1.0);
}

TEST(KlClip, SmallUpdatesPassThrough) {
  std::vector<Matrix> deltas{Matrix{{1e-6}}};
  std::vector<Matrix> grads{Matrix{{1e-6}}};
  EXPECT_DOUBLE_EQ(kl_clip_factor(deltas, grads, 0.01, 1.0), 1.0);
}

TEST(KlClip, NegativeTrustMeasureIsHarmless) {
  std::vector<Matrix> deltas{Matrix{{1.0}}};
  std::vector<Matrix> grads{Matrix{{-1.0}}};
  EXPECT_DOUBLE_EQ(kl_clip_factor(deltas, grads, 0.1, 0.5), 1.0);
}

TEST(KlClip, MismatchedSizesThrow) {
  std::vector<Matrix> deltas{Matrix{{1.0}}, Matrix{{2.0}}};
  std::vector<Matrix> grads{Matrix{{1.0}}};
  EXPECT_THROW(kl_clip_factor(deltas, grads, 0.1, 0.5),
               std::invalid_argument);
}

TEST(KfacOptimizer, KlClipScalesAppliedStep) {
  Rng rng(91);
  auto run = [&rng](double kl_clip) {
    Rng local(91);
    nn::Sequential model;
    model.add(std::make_unique<nn::Linear>("fc", 3, 2, false, local));
    auto layers = model.preconditioned_layers();
    KfacOptions opts;
    opts.lr = 0.5;
    opts.damping = 0.01;
    opts.stat_decay = 0.0;
    opts.kl_clip = kl_clip;
    KfacOptimizer kfac(layers, opts);
    Tensor4D x(2, 3, 1, 1);
    Rng data_rng(5);
    tensor::fill_normal(x.data, data_rng);
    nn::SoftmaxCrossEntropy loss;
    std::vector<int> labels{0, 1};
    loss.forward(model.forward(x), labels);
    model.backward(loss.backward());
    const Matrix before = layers[0]->weight();
    kfac.step();
    return testsupport::frobenius_norm(before - layers[0]->weight());
  };
  const double unclipped = run(0.0);
  const double clipped = run(1e-6);  // tiny trust region
  EXPECT_LT(clipped, unclipped);
  EXPECT_GT(clipped, 0.0);
  (void)rng;
}

TEST(FactoredDamping, BalancedFactorsGiveSymmetricSplit) {
  // When tr(A)/d_A == tr(G)/d_G, pi = 1 and both factors get sqrt(gamma).
  Matrix a = Matrix::identity(4) * 2.0;
  Matrix g = Matrix::identity(7) * 2.0;
  const auto [ga, gg] = factored_damping(a, g, 0.09);
  EXPECT_NEAR(ga, 0.3, 1e-12);
  EXPECT_NEAR(gg, 0.3, 1e-12);
}

TEST(FactoredDamping, SkewedTracesSkewTheSplit) {
  Matrix a = Matrix::identity(2) * 100.0;  // mean trace 100
  Matrix g = Matrix::identity(2) * 1.0;    // mean trace 1
  const auto [ga, gg] = factored_damping(a, g, 1.0);
  EXPECT_NEAR(ga, 10.0, 1e-9);  // pi = 10
  EXPECT_NEAR(gg, 0.1, 1e-9);
  EXPECT_NEAR(ga * gg, 1.0, 1e-9);  // product preserves gamma
}

TEST(FactoredDamping, DegenerateTraceFallsBack) {
  Matrix a(3, 3);  // zero trace
  Matrix g = Matrix::identity(3);
  const auto [ga, gg] = factored_damping(a, g, 0.5);
  EXPECT_DOUBLE_EQ(ga, 0.5);
  EXPECT_DOUBLE_EQ(gg, 0.5);
}

TEST(PiDamping, ChangesUpdateButStillLearns) {
  auto run = [](bool pi) {
    Rng local(66);
    const std::size_t widths[] = {6, 8, 3};
    nn::Sequential model = nn::make_mlp(widths, local);
    auto layers = model.preconditioned_layers();
    KfacOptions opts;
    opts.pi_damping = pi;
    opts.lr = 0.2;
    opts.damping = 0.1;
    KfacOptimizer kfac(layers, opts);
    nn::SyntheticClassification data(3, 6, 1, 44, 0.2);
    nn::SoftmaxCrossEntropy loss;
    Rng data_rng(3);
    double last = 0;
    for (int s = 0; s < 15; ++s) {
      auto batch = data.sample(16, data_rng);
      nn::Tensor4D flat(batch.inputs.n, 6, 1, 1);
      flat.data = batch.inputs.data;
      last = loss.forward(model.forward(flat), batch.labels);
      model.backward(loss.backward());
      kfac.step();
    }
    return std::pair<double, tensor::Matrix>{last, layers[0]->weight()};
  };
  const auto [loss_pi, w_pi] = run(true);
  const auto [loss_plain, w_plain] = run(false);
  EXPECT_LT(loss_pi, 1.2);    // still converging
  EXPECT_LT(loss_plain, 1.2);
  EXPECT_GT(tensor::max_abs_diff(w_pi, w_plain), 0.0);  // different paths
}

TEST(DistPiDamping, ConsistentAcrossRanksAndStrategies) {
  // pi-damping derives from aggregated factors, so ranks stay identical and
  // the three inverse placements agree: every rank inverting everything
  // (D-KFAC), round-robin owners broadcasting inverses (MPD-KFAC) and
  // Layer-LBP owners broadcasting the preconditioned update (SPD-KFAC).
  auto run = [](DistStrategy strategy) {
    constexpr int kWorld = 3;
    std::vector<std::vector<tensor::Matrix>> weights(kWorld);
    comm::Cluster::launch(kWorld, [&](comm::Communicator& comm) {
      Rng local(77);
      const std::size_t widths[] = {5, 7, 3};
      nn::Sequential model = nn::make_mlp(widths, local);
      auto layers = model.preconditioned_layers();
      DistKfacOptions opts;
      opts.strategy = strategy;
      opts.pi_damping = true;
      DistKfacOptimizer optimizer(layers, comm, opts);
      nn::SyntheticClassification data(3, 5, 1, 12);
      Rng shard(300 + comm.rank());
      nn::SoftmaxCrossEntropy loss;
      for (int s = 0; s < 2; ++s) {
        auto batch = data.sample(8, shard);
        nn::Tensor4D flat(batch.inputs.n, 5, 1, 1);
        flat.data = batch.inputs.data;
        loss.forward(model.forward(flat), batch.labels);
        model.backward(loss.backward());
        optimizer.step();
      }
      for (auto* l : layers) weights[comm.rank()].push_back(l->weight());
    });
    for (int r = 1; r < kWorld; ++r) {
      for (std::size_t l = 0; l < weights[0].size(); ++l) {
        EXPECT_EQ(tensor::max_abs_diff(weights[r][l], weights[0][l]), 0.0)
            << to_string(strategy) << " rank " << r << " layer " << l;
      }
    }
    return weights[0];
  };
  const auto dkfac = run(DistStrategy::kDKfac);
  const auto mpd = run(DistStrategy::kMpdKfac);
  const auto spd = run(DistStrategy::kSpdKfac);
  ASSERT_EQ(dkfac.size(), 2u);
  for (std::size_t l = 0; l < dkfac.size(); ++l) {
    EXPECT_TRUE(testsupport::allclose(mpd[l], dkfac[l], 1e-9, 1e-11))
        << "layer " << l;
    EXPECT_TRUE(testsupport::allclose(spd[l], dkfac[l], 1e-9, 1e-11))
        << "layer " << l;
  }
}

TEST(SgdOptimizer, AppliesPlainGradientStep) {
  Rng rng(15);
  nn::Sequential model;
  model.add(std::make_unique<nn::Linear>("fc", 2, 2, false, rng));
  auto layers = model.preconditioned_layers();
  Tensor4D x(1, 2, 1, 1);
  x.data = {1.0, -1.0};
  nn::SoftmaxCrossEntropy loss;
  std::vector<int> labels{0};
  loss.forward(model.forward(x), labels);
  model.backward(loss.backward());
  const Matrix w = layers[0]->weight();
  const Matrix grad = layers[0]->weight_grad();
  SgdOptimizer sgd(layers, 0.5);
  sgd.step();
  EXPECT_TRUE(testsupport::allclose(layers[0]->weight(), w - grad * 0.5));
}

}  // namespace
}  // namespace spdkfac::core
