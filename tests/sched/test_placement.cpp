#include "sched/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "models/model_spec.hpp"

namespace spdkfac::sched {
namespace {

// The calibrated task-pricing models of the paper preset (cubic inverse law
// and fabric broadcast cost) — what Algorithm 1 consumes in the simulator.
perf::InverseModel paper_inverse() {
  return perf::ClusterCalibration::paper_rtx2080ti_64gpu().inverse;
}

perf::BroadcastModel paper_broadcast() {
  return perf::ClusterCalibration::paper_rtx2080ti_64gpu().bcast_fabric;
}

TEST(SeqPlace, RoundRobinAllCT) {
  const std::vector<std::size_t> dims{10, 20, 30, 40, 50};
  const Placement p = seq_place(dims, 2);
  EXPECT_TRUE(p.valid(5));
  EXPECT_EQ(p.num_ncts(), 0u);
  EXPECT_EQ(p.per_gpu[0], (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(p.per_gpu[1], (std::vector<std::size_t>{1, 3}));
}

TEST(SeqPlace, MoreGpusThanTensorsLeavesIdleGpus) {
  const std::vector<std::size_t> dims{10, 20};
  const Placement p = seq_place(dims, 4);
  EXPECT_TRUE(p.valid(2));
  EXPECT_TRUE(p.per_gpu[2].empty());
  EXPECT_TRUE(p.per_gpu[3].empty());
}

TEST(NonDistPlace, EverythingNct) {
  const std::vector<std::size_t> dims{10, 20, 30};
  const Placement p = nondist_place(dims, 8);
  EXPECT_TRUE(p.valid(3));
  EXPECT_EQ(p.num_ncts(), 3u);
  EXPECT_EQ(p.num_cts(), 0u);
  for (const auto& per_gpu : p.per_gpu) EXPECT_TRUE(per_gpu.empty());
}

TEST(LbpPlace, SmallTensorsBecomeNct) {
  // With the paper's models, small dims satisfy t_comp < t_comm (Fig. 11)
  // and must be replicated; huge dims must be CT.
  const std::vector<std::size_t> dims{64, 128, 8192, 7000};
  const Placement p =
      lbp_place(dims, 4, paper_inverse(), paper_broadcast());
  EXPECT_TRUE(p.valid(4));
  EXPECT_TRUE(p.assignments[0].nct);   // dim 64
  EXPECT_TRUE(p.assignments[1].nct);   // dim 128
  EXPECT_FALSE(p.assignments[2].nct);  // dim 8192
  EXPECT_FALSE(p.assignments[3].nct);  // dim 7000
}

TEST(LbpPlace, CtOwnersAreSpread) {
  // Four equally-huge tensors on four GPUs: each GPU gets exactly one.
  const std::vector<std::size_t> dims{8192, 8192, 8192, 8192};
  const Placement p =
      lbp_place(dims, 4, paper_inverse(), paper_broadcast());
  EXPECT_EQ(p.num_cts(), 4u);
  for (const auto& per_gpu : p.per_gpu) EXPECT_EQ(per_gpu.size(), 1u);
}

TEST(LbpPlace, SingleGpuMakesEverythingNct) {
  const std::vector<std::size_t> dims{64, 8192};
  const Placement p =
      lbp_place(dims, 1, paper_inverse(), paper_broadcast());
  EXPECT_EQ(p.num_ncts(), 2u);
}

TEST(LbpPlace, WorldSizeValidation) {
  const std::vector<std::size_t> dims{1};
  EXPECT_THROW(lbp_place(dims, 0, paper_inverse(), paper_broadcast()),
               std::invalid_argument);
  EXPECT_THROW(seq_place(dims, 0), std::invalid_argument);
}

// Layer-granular Algorithm 1 at the paper's models: a big layer's two
// GEMMs outweigh one ΔW broadcast and it goes to one owner whole; a
// 64/128 layer's update is cheaper than a broadcast start-up, so it keeps
// lbp_place's per-tensor typing.
TEST(LbpLayerPlace, OwnsLayersWhoseUpdateOutweighsOneBroadcast) {
  const std::vector<std::size_t> dims{4096, 4096, 64, 128, 2048, 1024};
  const Placement p =
      lbp_layer_place(dims, 4, paper_inverse(), paper_broadcast());
  const Placement tensor = lbp_place(dims, 4, paper_inverse(),
                                     paper_broadcast());
  EXPECT_EQ(p.policy, "Layer-LBP");
  EXPECT_TRUE(p.valid(dims.size()));
  ASSERT_EQ(p.layer_owner.size(), 3u);
  EXPECT_TRUE(p.owned(0));
  EXPECT_FALSE(p.owned(1));
  EXPECT_TRUE(p.owned(2));
  EXPECT_NE(p.layer_owner[0], p.layer_owner[2]) << "owned layers spread";
  for (const std::size_t l : {std::size_t{0}, std::size_t{2}}) {
    for (const std::size_t t : {2 * l, 2 * l + 1}) {
      EXPECT_FALSE(p.assignments[t].nct);
      EXPECT_EQ(p.assignments[t].owner, p.layer_owner[l]);
    }
  }
  for (const std::size_t t : {std::size_t{2}, std::size_t{3}}) {
    EXPECT_EQ(p.assignments[t].nct, tensor.assignments[t].nct) << t;
  }
  EXPECT_TRUE(tensor.layer_owner.empty());
}

TEST(LbpLayerPlace, SingleGpuOwnsNothingAndBadInputThrows) {
  const std::vector<std::size_t> dims{4096, 4096};
  const Placement p =
      lbp_layer_place(dims, 1, paper_inverse(), paper_broadcast());
  EXPECT_FALSE(p.owned(0));
  EXPECT_EQ(p.num_ncts(), 2u);
  const std::vector<std::size_t> odd{64, 128, 256};
  EXPECT_THROW(lbp_layer_place(odd, 4, paper_inverse(), paper_broadcast()),
               std::invalid_argument);
  EXPECT_THROW(lbp_layer_place(dims, 0, paper_inverse(), paper_broadcast()),
               std::invalid_argument);
}

TEST(PredictCost, OwnedLayerPaysOneDeltaBroadcastInsteadOfItsInverses) {
  const std::vector<std::size_t> dims{4096, 2048};
  const auto inv = paper_inverse();
  const auto bc = paper_broadcast();
  const Placement p = lbp_layer_place(dims, 2, inv, bc);
  ASSERT_TRUE(p.owned(0));
  const PlacementCost cost = predict_cost(p, dims, inv, bc);
  EXPECT_DOUBLE_EQ(cost.bottleneck_comm, bc.time_elements(4096 * 2048));
  EXPECT_DOUBLE_EQ(cost.bottleneck_comp, inv.time(4096) + inv.time(2048));
}

TEST(PredictCost, NonDistHasNoCommAndFullComp) {
  const std::vector<std::size_t> dims{1000, 2000};
  const Placement p = nondist_place(dims, 4);
  const PlacementCost cost =
      predict_cost(p, dims, paper_inverse(), paper_broadcast());
  const double expect = paper_inverse().time(1000) + paper_inverse().time(2000);
  for (double t : cost.per_gpu_seconds) EXPECT_NEAR(t, expect, 1e-12);
  EXPECT_NEAR(cost.bottleneck_comm, 0.0, 1e-15);
}

TEST(PredictCost, SeqDistChargesOwnerCompAndComm) {
  const std::vector<std::size_t> dims{4000, 5000};
  const Placement p = seq_place(dims, 2);
  const PlacementCost cost =
      predict_cost(p, dims, paper_inverse(), paper_broadcast());
  EXPECT_NEAR(cost.per_gpu_seconds[0],
              paper_inverse().time(4000) + paper_broadcast().time_dim(4000),
              1e-12);
  EXPECT_NEAR(cost.per_gpu_seconds[1],
              paper_inverse().time(5000) + paper_broadcast().time_dim(5000),
              1e-12);
  EXPECT_EQ(cost.max_seconds,
            *std::max_element(cost.per_gpu_seconds.begin(),
                              cost.per_gpu_seconds.end()));
}

TEST(PredictCost, LbpBeatsNonDistOnPaperModels) {
  // Under the paper's per-GPU objective (Eq. 21), LBP strictly improves on
  // computing every inverse locally for all four CNNs: the distributed CTs
  // remove more compute than their broadcasts cost.  (Seq-Dist comparisons
  // live at the simulator level — Eq. 21 ignores the fabric contention that
  // makes 2L concurrent broadcasts expensive in the paper's measurements;
  // see tests/sim/test_iteration.cpp.)
  for (const auto& spec : models::paper_models()) {
    const auto dims = spec.factor_dims();
    const auto inv = paper_inverse();
    const auto bc = paper_broadcast();
    const double lbp =
        predict_cost(lbp_place(dims, 64, inv, bc), dims, inv, bc).max_seconds;
    const double nondist =
        predict_cost(nondist_place(dims, 64), dims, inv, bc).max_seconds;
    EXPECT_LT(lbp, nondist) << spec.name;
  }
}

TEST(PredictCost, SeqDistComputeGainVisibleWithoutContention) {
  // Eq. (24) captures only the compute distribution gain of Seq-Dist; with
  // contention ignored it must look no worse than Non-Dist on every model.
  // The DenseNet-201 reversal of Fig. 12 is a contention effect and is
  // asserted in the simulator tests instead.
  for (const auto& spec : models::paper_models()) {
    const auto dims = spec.factor_dims();
    const auto inv = paper_inverse();
    const auto bc = paper_broadcast();
    const double seq =
        predict_cost(seq_place(dims, 64), dims, inv, bc).max_seconds;
    const double nondist =
        predict_cost(nondist_place(dims, 64), dims, inv, bc).max_seconds;
    EXPECT_LE(seq, nondist) << spec.name;
  }
}

TEST(LbpPlace, BalanceMetricsAllProduceValidPlacements) {
  const auto dims = models::resnet50().factor_dims();
  for (auto metric : {BalanceMetric::kDim, BalanceMetric::kDimSquared,
                      BalanceMetric::kEstimatedTime}) {
    const Placement p =
        lbp_place(dims, 16, paper_inverse(), paper_broadcast(), metric);
    EXPECT_TRUE(p.valid(dims.size()));
  }
}

TEST(LbpPlace, EstimatedTimeBalanceBeatsRawDimBalance) {
  // The d^2-vs-d ambiguity in Algorithm 1: balancing by estimated time must
  // not be worse than balancing by raw dimension under the paper's own
  // objective.
  const auto dims = models::resnet152().factor_dims();
  const auto inv = paper_inverse();
  const auto bc = paper_broadcast();
  const double by_time =
      predict_cost(lbp_place(dims, 64, inv, bc, BalanceMetric::kEstimatedTime),
                   dims, inv, bc)
          .max_seconds;
  const double by_dim =
      predict_cost(lbp_place(dims, 64, inv, bc, BalanceMetric::kDim), dims,
                   inv, bc)
          .max_seconds;
  EXPECT_LE(by_time, by_dim * 1.001);
}

TEST(PlacementValid, DetectsCorruption) {
  const std::vector<std::size_t> dims{10, 20};
  Placement p = seq_place(dims, 2);
  EXPECT_TRUE(p.valid(2));
  p.assignments[0].owner = 5;  // out of range
  EXPECT_FALSE(p.valid(2));
  p = seq_place(dims, 2);
  p.per_gpu[0].push_back(1);  // tensor listed on a non-owner GPU
  EXPECT_FALSE(p.valid(2));
}

// Property sweep over random workloads: structural invariants of
// Algorithm 1.  (Global optimality claims are NOT properties of the greedy
// algorithm — e.g. a workload of many mid-size all-NCT tensors replicates
// work on every GPU, which is exactly why the figures use real DNN dimension
// distributions — so the sweep checks the rule-level guarantees instead.)
class PlacementProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlacementProperty, StructureNctRuleAndGreedyBalance) {
  const auto [seed, world] = GetParam();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> count(1, 400);
  std::uniform_int_distribution<std::size_t> dim(16, 8192);
  std::vector<std::size_t> dims(count(rng));
  for (auto& d : dims) d = dim(rng);

  const auto inv = paper_inverse();
  const auto bc = paper_broadcast();
  const Placement lbp = lbp_place(dims, world, inv, bc);
  EXPECT_TRUE(lbp.valid(dims.size()));
  EXPECT_TRUE(seq_place(dims, world).valid(dims.size()));
  EXPECT_TRUE(nondist_place(dims, world).valid(dims.size()));

  // CT/NCT typing is exactly the t_comp < t_comm rule (lines 8-13).
  for (const auto& a : lbp.assignments) {
    const bool should_be_nct =
        world == 1 || inv.time(a.dim) < bc.time_dim(a.dim);
    EXPECT_EQ(a.nct, should_be_nct) << "dim=" << a.dim;
  }

  // Greedy balance: no GPU's CT load exceeds the lightest GPU's load by
  // more than one largest-item weight (classic greedy-scheduling bound).
  std::vector<double> load(world, 0.0);
  double max_item = 0.0;
  for (int p = 0; p < world; ++p) {
    for (std::size_t t : lbp.per_gpu[p]) {
      const double w = inv.time(dims[t]) + bc.time_dim(dims[t]);
      load[p] += w;
      max_item = std::max(max_item, w);
    }
  }
  const double hi = *std::max_element(load.begin(), load.end());
  const double lo = *std::min_element(load.begin(), load.end());
  EXPECT_LE(hi - lo, max_item + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlacementProperty,
    ::testing::Combine(::testing::Range(0, 10),
                       ::testing::Values(1, 2, 4, 8, 64)));

}  // namespace
}  // namespace spdkfac::sched
