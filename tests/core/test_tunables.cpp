// with_tunable / set_tunable / force_replan: the control plane's live
// reconfiguration path.  The strong guarantee (a rejected set leaves the
// options bitwise untouched) is what lets spdkfacd validate `set` commands
// before queueing them.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "comm/cluster.hpp"
#include "core/dist_kfac.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "tensor/random.hpp"

namespace spdkfac::core {
namespace {

TEST(WithTunable, SetsEveryDocumentedTunable) {
  const DistKfacOptions base;

  DistKfacOptions next = with_tunable(base, "lr", 0.125);
  EXPECT_DOUBLE_EQ(next.lr, 0.125);
  EXPECT_DOUBLE_EQ(base.lr, 0.05) << "input must be untouched";

  next = with_tunable(base, "damping", 0.25);
  EXPECT_DOUBLE_EQ(next.damping, 0.25);

  next = with_tunable(base, "stat_decay", 0.0);
  EXPECT_DOUBLE_EQ(next.stat_decay, 0.0);

  next = with_tunable(base, "kl_clip", 0.001);
  EXPECT_DOUBLE_EQ(next.kl_clip, 0.001);

  next = with_tunable(base, "factor_update_freq", 4.0);
  EXPECT_EQ(next.factor_update_freq, 4u);

  next = with_tunable(base, "inverse_update_freq", 8.0);
  EXPECT_EQ(next.inverse_update_freq, 8u);

  next = with_tunable(base, "replan_interval", 16.0);
  EXPECT_EQ(next.replan_interval, 16u);
}

TEST(WithTunable, RejectsUnknownNamesNamingTheValidOnes) {
  const DistKfacOptions base;
  try {
    with_tunable(base, "learning_rate", 0.1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("learning_rate"), std::string::npos) << what;
    EXPECT_NE(what.find("lr"), std::string::npos) << what;
    EXPECT_NE(what.find("replan_interval"), std::string::npos) << what;
  }
}

TEST(WithTunable, RejectsValuesValidateRejects) {
  const DistKfacOptions base;
  EXPECT_THROW(with_tunable(base, "lr", 0.0), std::invalid_argument);
  EXPECT_THROW(with_tunable(base, "lr", -0.1), std::invalid_argument);
  EXPECT_THROW(with_tunable(base, "damping", 0.0), std::invalid_argument);
  EXPECT_THROW(with_tunable(base, "stat_decay", 1.0), std::invalid_argument);
  EXPECT_THROW(with_tunable(base, "stat_decay", -0.1),
               std::invalid_argument);
  EXPECT_THROW(with_tunable(base, "kl_clip", -1.0), std::invalid_argument);
}

TEST(WithTunable, FrequencyTunablesRequirePositiveIntegers) {
  const DistKfacOptions base;
  for (const char* name :
       {"factor_update_freq", "inverse_update_freq", "replan_interval"}) {
    EXPECT_THROW(with_tunable(base, name, 0.0), std::invalid_argument)
        << name;
    EXPECT_THROW(with_tunable(base, name, -1.0), std::invalid_argument)
        << name;
    EXPECT_THROW(with_tunable(base, name, 1.5), std::invalid_argument)
        << name;
    EXPECT_THROW(with_tunable(base, name,
                              std::numeric_limits<double>::infinity()),
                 std::invalid_argument)
        << name;
    // Integral but past size_t: rejected before the (undefined) cast, with
    // an error naming the tunable.
    for (const double huge : {1e300, std::ldexp(1.0, 64)}) {
      try {
        with_tunable(base, name, huge);
        ADD_FAILURE() << name << "=" << huge << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
      }
    }
    EXPECT_NO_THROW(with_tunable(base, name, 3.0)) << name;
  }
}

// ---------------------------------------------------------------------------
// Live optimizer: set_tunable / force_replan between steps.
// ---------------------------------------------------------------------------

sched::PassTiming fixed_profile(std::size_t layers) {
  sched::PassTiming t;
  for (std::size_t l = 0; l < layers; ++l) {
    t.a_ready.push_back(1e-4 * static_cast<double>(l + 1));
    t.g_ready.push_back(1e-3 + 1e-4 * static_cast<double>(l + 1));
    t.grad_ready.push_back(1e-3 + 1.5e-4 * static_cast<double>(l + 1));
  }
  t.backward_end = 2e-3;
  return t;
}

TEST(SetTunable, StrongGuaranteeAndLiveEffectOnTheOptimizer) {
  comm::Cluster::launch(1, [&](comm::Communicator& comm) {
    tensor::Rng rng(7);
    const std::size_t widths[] = {6, 8, 4};
    nn::Sequential model = nn::make_mlp(widths, rng);
    auto layers = model.preconditioned_layers();
    DistKfacOptions opts;
    opts.profile = fixed_profile(layers.size());
    opts.replan_interval = 100;  // no natural re-plan inside this test
    DistKfacOptimizer optimizer(layers, comm, opts);

    optimizer.set_tunable("lr", 0.01);
    EXPECT_DOUBLE_EQ(optimizer.options().lr, 0.01);

    const DistKfacOptions before = optimizer.options();
    EXPECT_THROW(optimizer.set_tunable("lr", -5.0), std::invalid_argument);
    EXPECT_THROW(optimizer.set_tunable("bogus", 1.0), std::invalid_argument);
    EXPECT_DOUBLE_EQ(optimizer.options().lr, before.lr);
    EXPECT_DOUBLE_EQ(optimizer.options().damping, before.damping);

    // force_replan arms an immediate planning refresh: the first step plans
    // (epoch 1); without force_replan the next steps reuse that epoch.
    nn::SyntheticClassification data(4, 6, 1, 11);
    tensor::Rng shard(100);
    nn::SoftmaxCrossEntropy loss;
    const auto one_step = [&] {
      nn::Batch b = data.sample(8, shard);
      nn::Tensor4D flat(b.inputs.n, 6, 1, 1);
      flat.data = b.inputs.data;
      loss.forward(model.forward(flat), b.labels);
      model.backward(loss.backward());
      optimizer.step();
    };
    one_step();
    const std::size_t epoch_after_first = optimizer.replan_count();
    one_step();
    EXPECT_EQ(optimizer.replan_count(), epoch_after_first)
        << "replan_interval=100 must not re-plan on step 2";
    optimizer.force_replan();
    one_step();
    EXPECT_EQ(optimizer.replan_count(), epoch_after_first + 1)
        << "force_replan must trigger a refresh on the next step";
  });
}

}  // namespace
}  // namespace spdkfac::core
