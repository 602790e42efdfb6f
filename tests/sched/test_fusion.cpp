#include "sched/fusion.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <random>

namespace spdkfac::sched {
namespace {

perf::AllReduceModel model_with(double alpha, double beta) {
  return perf::AllReduceModel{perf::LinearModel{alpha, beta}};
}

FusionPlanInput uniform_input(std::size_t n, double gap, std::size_t size) {
  FusionPlanInput input;
  input.ready_times.resize(n);
  input.sizes.assign(n, size);
  for (std::size_t i = 0; i < n; ++i) input.ready_times[i] = (i + 1) * gap;
  return input;
}

void check_cover(const std::vector<FusionGroup>& groups, std::size_t n,
                 const FusionPlanInput& input) {
  ASSERT_FALSE(groups.empty());
  EXPECT_EQ(groups.front().first, 0u);
  EXPECT_EQ(groups.back().last, n - 1);
  for (std::size_t i = 1; i < groups.size(); ++i) {
    EXPECT_EQ(groups[i].first, groups[i - 1].last + 1);
  }
  std::size_t total = 0;
  for (const auto& g : groups) {
    std::size_t expect = 0;
    for (std::size_t j = g.first; j <= g.last; ++j) expect += input.sizes[j];
    EXPECT_EQ(g.elements, expect);
    total += g.elements;
  }
  EXPECT_EQ(total,
            std::accumulate(input.sizes.begin(), input.sizes.end(),
                            std::size_t{0}));
}

TEST(PlanFusion, EmptyInputGivesNoGroups) {
  FusionPlanInput input;
  EXPECT_TRUE(plan_fusion(input, model_with(1e-2, 1e-9),
                          FusionPolicy::kOptimal)
                  .empty());
}

TEST(PlanFusion, NoFusionEmitsOneGroupPerFactor) {
  const auto input = uniform_input(7, 0.01, 100);
  const auto groups =
      plan_fusion(input, model_with(1e-2, 1e-9), FusionPolicy::kNoFusion);
  EXPECT_EQ(groups.size(), 7u);
  check_cover(groups, 7, input);
}

TEST(PlanFusion, SingleBulkEmitsOneGroup) {
  const auto input = uniform_input(7, 0.01, 100);
  const auto groups =
      plan_fusion(input, model_with(1e-2, 1e-9), FusionPolicy::kSingleBulk);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].count(), 7u);
  check_cover(groups, 7, input);
}

TEST(PlanFusion, ThresholdFlushesAtBoundary) {
  FusionPlanInput input = uniform_input(6, 0.01, 100);
  // Threshold of 250 elements: groups of 3 (100+100+100 >= 250? no:
  // 100+100=200 <250, +100=300 >= 250 -> flush after 3rd).
  const auto groups = plan_fusion(input, model_with(1e-2, 1e-9),
                                  FusionPolicy::kThreshold, 250);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].count(), 3u);
  EXPECT_EQ(groups[1].count(), 3u);
}

TEST(PlanFusion, ThresholdFlushesRemainderAtEnd) {
  FusionPlanInput input = uniform_input(5, 0.01, 100);
  const auto groups = plan_fusion(input, model_with(1e-2, 1e-9),
                                  FusionPolicy::kThreshold, 250);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[1].count(), 2u);  // partial tail still communicated
  check_cover(groups, 5, input);
}

TEST(PlanFusion, OptimalMergesWhenFactorsArriveWithinStartup) {
  // Factors arrive every 1 ms; startup is 10 ms: Eq. (15) says merge all.
  const auto input = uniform_input(10, 1e-3, 1000);
  const auto groups =
      plan_fusion(input, model_with(1e-2, 1e-12), FusionPolicy::kOptimal);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].count(), 10u);
}

TEST(PlanFusion, OptimalKeepsSlowArrivalsSeparate) {
  // Factors arrive every 100 ms; startup is 1 ms: no merging pays off.
  const auto input = uniform_input(5, 0.1, 1000);
  const auto groups =
      plan_fusion(input, model_with(1e-3, 1e-12), FusionPolicy::kOptimal);
  EXPECT_EQ(groups.size(), 5u);
}

TEST(PlanFusion, OptimalAccountsForBusyStream) {
  // Two factors: the second arrives after the first *could* start, but a
  // huge in-flight communication keeps the stream busy, so Eq. (15)'s
  // comm_begin = max(ready, stream_free) forces a merge.
  FusionPlanInput input;
  input.ready_times = {0.0, 0.05};
  input.sizes = {10, 10};
  input.stream_free_at = 10.0;  // stream busy for a long time
  const auto groups =
      plan_fusion(input, model_with(1e-3, 1e-9), FusionPolicy::kOptimal);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].count(), 2u);
}

TEST(PlanFusion, PredictedWindowsAreSequentialOnTheStream) {
  const auto input = uniform_input(8, 0.02, 5000);
  for (auto policy : {FusionPolicy::kNoFusion, FusionPolicy::kThreshold,
                      FusionPolicy::kOptimal}) {
    const auto groups = plan_fusion(input, model_with(5e-3, 1e-8), policy);
    for (std::size_t i = 0; i < groups.size(); ++i) {
      EXPECT_GE(groups[i].comm_start, groups[i].ready_time);
      EXPECT_GT(groups[i].comm_end, groups[i].comm_start);
      if (i > 0) {
        EXPECT_GE(groups[i].comm_start, groups[i - 1].comm_end - 1e-12);
      }
    }
  }
}

TEST(PlanFusion, DecreasingReadyTimesThrow) {
  FusionPlanInput input;
  input.ready_times = {1.0, 0.5};
  input.sizes = {1, 1};
  EXPECT_THROW(
      plan_fusion(input, model_with(1e-3, 1e-9), FusionPolicy::kOptimal),
      std::invalid_argument);
}

TEST(PlanFusion, MismatchedInputsThrow) {
  FusionPlanInput input;
  input.ready_times = {1.0};
  input.sizes = {1, 2};
  EXPECT_THROW(
      plan_fusion(input, model_with(1e-3, 1e-9), FusionPolicy::kNoFusion),
      std::invalid_argument);
}

// Property: under any policy the plan covers the factors exactly once, in
// order, and optimal never produces a worse predicted finish than no-fusion.
class FusionProperty : public ::testing::TestWithParam<int> {};

TEST_P(FusionProperty, CoverageAndOptimalityAcrossRandomWorkloads) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<std::size_t> count(1, 60);
  std::uniform_real_distribution<double> gap(1e-5, 5e-3);
  std::uniform_int_distribution<std::size_t> size(100, 5'000'000);

  FusionPlanInput input;
  const std::size_t n = count(rng);
  double clock = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    clock += gap(rng);
    input.ready_times.push_back(clock);
    input.sizes.push_back(size(rng));
  }
  const auto model = model_with(1.22e-2, 1.45e-9);

  for (auto policy : {FusionPolicy::kNoFusion, FusionPolicy::kThreshold,
                      FusionPolicy::kOptimal, FusionPolicy::kSingleBulk}) {
    check_cover(plan_fusion(input, model, policy), n, input);
  }

  const auto optimal = plan_fusion(input, model, FusionPolicy::kOptimal);
  const auto layerwise = plan_fusion(input, model, FusionPolicy::kNoFusion);
  EXPECT_LE(optimal.back().comm_end, layerwise.back().comm_end + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionProperty, ::testing::Range(0, 20));

// Exhaustive optimality: for small factor counts, enumerate every possible
// consecutive grouping (2^(n-1) boundary masks) and verify the DP finds the
// minimum drain time.
class FusionOptimality : public ::testing::TestWithParam<int> {};

TEST_P(FusionOptimality, DpMatchesBruteForceMinimum) {
  std::mt19937_64 rng(GetParam() * 31 + 7);
  std::uniform_int_distribution<std::size_t> count(1, 10);
  std::uniform_real_distribution<double> gap(1e-4, 3e-2);
  std::uniform_int_distribution<std::size_t> size(1000, 20'000'000);
  std::uniform_real_distribution<double> alpha(1e-4, 2e-2);

  FusionPlanInput input;
  const std::size_t n = count(rng);
  double clock = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    clock += gap(rng);
    input.ready_times.push_back(clock);
    input.sizes.push_back(size(rng));
  }
  input.stream_free_at = gap(rng);
  const auto model = model_with(alpha(rng), 1.45e-9);

  // Brute force over boundary masks: bit b set => cut between b and b+1.
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t mask = 0; mask < (1ull << (n - 1)); ++mask) {
    double stream_free = input.stream_free_at;
    std::size_t first = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool cut = i + 1 == n || (mask >> i) & 1;
      if (!cut) continue;
      std::size_t elements = 0;
      for (std::size_t j = first; j <= i; ++j) elements += input.sizes[j];
      stream_free = std::max(input.ready_times[i], stream_free) +
                    model.time(elements);
      first = i + 1;
    }
    best = std::min(best, stream_free);
  }

  const auto plan = plan_fusion(input, model, FusionPolicy::kOptimal);
  EXPECT_NEAR(plan.back().comm_end, best, best * 1e-12)
      << "n=" << n << " alpha=" << model.startup();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionOptimality, ::testing::Range(0, 30));

}  // namespace
}  // namespace spdkfac::sched
