// Coverage for DistKfacOptions defaults, construction-time validation, and
// to_string(DistStrategy).
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "comm/cluster.hpp"
#include "core/dist_kfac.hpp"
#include "nn/layers.hpp"
#include "tensor/random.hpp"
#include "testsupport/codec_names.hpp"

namespace spdkfac::core {
namespace {

TEST(DistKfacOptionsTest, DefaultsMatchPaperConfiguration) {
  DistKfacOptions opts;
  EXPECT_DOUBLE_EQ(opts.lr, 0.05);
  EXPECT_DOUBLE_EQ(opts.damping, 3e-2);
  EXPECT_DOUBLE_EQ(opts.stat_decay, 0.95);
  EXPECT_EQ(opts.factor_update_freq, 1u);
  EXPECT_EQ(opts.inverse_update_freq, 1u);
  EXPECT_DOUBLE_EQ(opts.kl_clip, 0.0);
  EXPECT_FALSE(opts.pi_damping);
  EXPECT_EQ(opts.strategy, DistStrategy::kSpdKfac);
  EXPECT_EQ(opts.balance, sched::BalanceMetric::kEstimatedTime);
  EXPECT_EQ(opts.factor_comm, sched::FactorCommMode::kOptimalFuse);
  EXPECT_EQ(opts.grad_fusion_threshold, sched::kHorovodThresholdElements);
  EXPECT_EQ(opts.pool_size, 2u);
  EXPECT_TRUE(opts.profile.empty());
  EXPECT_EQ(opts.transport, comm::TransportKind::kInProcess);
  EXPECT_NO_THROW(opts.validate());
}

TEST(TransportKindTest, ToStringRoundTripsAndRejectsUnknown) {
  for (const comm::TransportKind kind :
       {comm::TransportKind::kInProcess, comm::TransportKind::kSocket}) {
    EXPECT_EQ(comm::transport_from_string(comm::to_string(kind)), kind);
  }
  // The deleted backend's old name fails at parse time too, and every
  // rejection names the transports that remain.
  for (const char* unknown : {"", "infiniband", "shm"}) {
    try {
      comm::transport_from_string(unknown);
      ADD_FAILURE() << '"' << unknown << "\" parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("inproc, socket"),
                std::string::npos)
          << e.what();
    }
  }
}

/// The single-process optimizer validates the same K-FAC fields at
/// construction, so a zero update frequency never reaches step()'s modulo.
void expect_kfac_optimizer_rejects(const KfacOptions& opts) {
  tensor::Rng rng(3);
  nn::Linear fc("fc", 3, 2, true, rng);
  EXPECT_THROW(KfacOptimizer({&fc}, opts), std::invalid_argument);
}

TEST(DistKfacOptionsTest, ValidateRejectsZeroUpdateFrequencies) {
  DistKfacOptions opts;
  opts.factor_update_freq = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  expect_kfac_optimizer_rejects(opts);
  opts = DistKfacOptions{};
  opts.inverse_update_freq = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  expect_kfac_optimizer_rejects(opts);
}

TEST(DistKfacOptionsTest, ValidateRejectsNonPositiveLrAndDamping) {
  for (const double bad : {0.0, -0.1}) {
    DistKfacOptions opts;
    opts.lr = bad;
    EXPECT_THROW(opts.validate(), std::invalid_argument) << "lr=" << bad;
    expect_kfac_optimizer_rejects(opts);
    opts = DistKfacOptions{};
    opts.damping = bad;
    EXPECT_THROW(opts.validate(), std::invalid_argument) << "damping=" << bad;
    expect_kfac_optimizer_rejects(opts);
  }
}

TEST(DistKfacOptionsTest, ValidateRejectsWrappedNegativeThreshold) {
  // size_t cannot hold a negative, but `opts.grad_fusion_threshold = -1`
  // compiles and silently wraps to ~2^64 — one giant fusion group.  Values
  // in the wrapped-negative half of the range are rejected.
  DistKfacOptions opts;
  opts.grad_fusion_threshold = static_cast<std::size_t>(-1);
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.grad_fusion_threshold = static_cast<std::size_t>(-123456);
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.grad_fusion_threshold = 0;  // layer-wise gradients: legitimate
  EXPECT_NO_THROW(opts.validate());
}

TEST(DistKfacOptionsTest, ValidateRejectsWrappedNegativePoolSize) {
  DistKfacOptions opts;
  opts.pool_size = static_cast<std::size_t>(-4);
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.pool_size = 0;  // no compute thread at all
  try {
    opts.validate();
    ADD_FAILURE() << "pool_size 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(">= 1"), std::string::npos)
        << e.what();
  }
  opts.pool_size = 1;  // the constructing thread alone: legitimate
  EXPECT_NO_THROW(opts.validate());
}

TEST(DistKfacOptionsTest, ValidateRejectsNegativeProfileEntries) {
  const auto with_profile = [](sched::PassTiming timing) {
    DistKfacOptions opts;
    opts.profile = std::move(timing);
    return opts;
  };

  sched::PassTiming good;
  good.a_ready = {0.1, 0.2};
  good.g_ready = {0.3, 0.4};
  good.grad_ready = {0.25, 0.15};
  good.backward_end = 0.5;
  EXPECT_NO_THROW(with_profile(good).validate());

  sched::PassTiming bad = good;
  bad.a_ready[1] = -0.2;
  EXPECT_THROW(with_profile(bad).validate(), std::invalid_argument);

  bad = good;
  bad.g_ready[0] = -1e-9;
  EXPECT_THROW(with_profile(bad).validate(), std::invalid_argument);

  bad = good;
  bad.grad_ready[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(with_profile(bad).validate(), std::invalid_argument);

  bad = good;
  bad.backward_end = -0.5;
  EXPECT_THROW(with_profile(bad).validate(), std::invalid_argument);

  bad = good;
  bad.backward_end = std::numeric_limits<double>::infinity();
  EXPECT_THROW(with_profile(bad).validate(), std::invalid_argument);
}

TEST(DistKfacOptionsTest, ValidateRejectsWrappedNegativeReplanInterval) {
  DistKfacOptions opts;
  opts.replan_interval = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.replan_interval = static_cast<std::size_t>(-1);
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.replan_interval = static_cast<std::size_t>(-50);
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.replan_interval = 10;  // legitimate steady-state cadence
  EXPECT_NO_THROW(opts.validate());
}

TEST(DistKfacOptionsTest, ValidateChecksTrajectoryEntriesAndExclusivity) {
  sched::PassTiming good;
  good.a_ready = {0.1, 0.2};
  good.g_ready = {0.3, 0.4};
  good.grad_ready = {0.25, 0.15};
  good.backward_end = 0.5;

  DistKfacOptions opts;
  opts.profile_trajectory = {good, good};
  EXPECT_NO_THROW(opts.validate());

  sched::PassTiming bad = good;
  bad.g_ready[1] = -1.0;
  opts.profile_trajectory = {good, bad};
  EXPECT_THROW(opts.validate(), std::invalid_argument);

  bad = good;
  bad.backward_end = std::numeric_limits<double>::quiet_NaN();
  opts.profile_trajectory = {bad};
  EXPECT_THROW(opts.validate(), std::invalid_argument);

  // A fixed profile and a trajectory cannot both drive planning.
  opts = DistKfacOptions{};
  opts.profile = good;
  opts.profile_trajectory = {good};
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(DistKfacOptionsTest, ValidateRejectsRetiredAndUnknownCodecs) {
  for (const testsupport::RejectedCodecId& bad :
       testsupport::kRejectedCodecIds) {
    const auto codec = static_cast<comm::Codec>(bad.id);
    DistKfacOptions factor;
    factor.factor_codec = codec;
    testsupport::expect_codec_rejected(bad, [&] { factor.validate(); });
    DistKfacOptions grad;
    grad.grad_codec = codec;
    testsupport::expect_codec_rejected(bad, [&] { grad.validate(); });
  }
  // Factors ship lossless; gradients may take top-k.
  DistKfacOptions opts;
  opts.factor_codec = comm::Codec::kTopK;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.factor_codec = comm::Codec::kNone;
  opts.grad_codec = comm::Codec::kTopK;
  EXPECT_NO_THROW(opts.validate());
}

TEST(DistKfacOptionsTest, AdaptiveDefaultsArePaperFaithful) {
  DistKfacOptions opts;
  EXPECT_EQ(opts.replan_interval, 1u);
  EXPECT_TRUE(opts.profile_trajectory.empty());
}

TEST(DistKfacOptionsTest, OptimizerConstructionValidatesOptions) {
  comm::Cluster::launch(1, [](comm::Communicator& comm) {
    tensor::Rng rng(1);
    const std::size_t widths[] = {4, 3};
    nn::Sequential model = nn::make_mlp(widths, rng);
    auto layers = model.preconditioned_layers();
    DistKfacOptions opts;
    opts.factor_update_freq = 0;
    EXPECT_THROW(DistKfacOptimizer(layers, comm, opts),
                 std::invalid_argument);
    opts = DistKfacOptions{};
    opts.lr = -1.0;
    EXPECT_THROW(DistKfacOptimizer(layers, comm, opts),
                 std::invalid_argument);
    EXPECT_NO_THROW(DistKfacOptimizer(layers, comm, DistKfacOptions{}));
  });
}

TEST(DistStrategyTest, ToStringNamesEachStrategy) {
  EXPECT_STREQ(to_string(DistStrategy::kDKfac), "D-KFAC");
  EXPECT_STREQ(to_string(DistStrategy::kMpdKfac), "MPD-KFAC");
  EXPECT_STREQ(to_string(DistStrategy::kSpdKfac), "SPD-KFAC");
}

TEST(DistStrategyTest, ToStringRoundTripsUniquely) {
  const DistStrategy all[] = {DistStrategy::kDKfac, DistStrategy::kMpdKfac,
                              DistStrategy::kSpdKfac};
  std::map<std::string, DistStrategy> by_name;
  for (DistStrategy s : all) {
    const char* name = to_string(s);
    ASSERT_NE(name, nullptr);
    EXPECT_FALSE(std::string(name).empty());
    auto [it, inserted] = by_name.emplace(name, s);
    EXPECT_TRUE(inserted) << "duplicate strategy name: " << name;
  }
  // Name -> strategy -> name is the identity: names are a faithful key.
  for (const auto& [name, s] : by_name) {
    EXPECT_EQ(name, to_string(s));
  }
}

}  // namespace
}  // namespace spdkfac::core
