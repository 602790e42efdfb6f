// Simulation-level reproduction checks: the qualitative claims of the
// paper's evaluation must hold in the simulated iteration schedules.
#include "sim/iteration.hpp"

#include <gtest/gtest.h>

#include "models/model_spec.hpp"
#include "perf/models.hpp"
#include "sched/serialize.hpp"

namespace spdkfac::sim {
namespace {

const perf::ClusterCalibration& cal64() {
  static const auto cal = perf::ClusterCalibration::paper_rtx2080ti_64gpu();
  return cal;
}

const perf::ClusterCalibration& cal1() {
  static const auto cal = perf::ClusterCalibration::paper_fabric(1);
  return cal;
}

const models::ModelSpec& r50() {
  static const auto spec = models::resnet50();
  return spec;
}

TEST(Iteration, SgdSingleGpuHasOnlyCompute) {
  const auto res =
      simulate_iteration(r50(), 32, cal1(), AlgorithmConfig::sgd());
  EXPECT_GT(res.breakdown.ff_bp, 0.0);
  EXPECT_EQ(res.breakdown.grad_comm, 0.0);
  EXPECT_EQ(res.breakdown.factor_comp, 0.0);
  EXPECT_EQ(res.breakdown.inverse_comp, 0.0);
  EXPECT_NEAR(res.breakdown.total(), res.total, 1e-9);
}

TEST(Iteration, KfacSingleGpuAddsFactorAndInverseCompute) {
  const auto res =
      simulate_iteration(r50(), 32, cal1(), AlgorithmConfig::kfac());
  EXPECT_GT(res.breakdown.factor_comp, 0.0);
  EXPECT_GT(res.breakdown.inverse_comp, 0.0);
  EXPECT_EQ(res.breakdown.factor_comm, 0.0);
  EXPECT_EQ(res.breakdown.inverse_comm, 0.0);
}

TEST(Iteration, KfacRoughlyFourTimesSgd) {
  // Section III: "KFAC takes about 4 times slower than SGD" on one GPU.
  const double sgd =
      iteration_time(r50(), 32, cal1(), AlgorithmConfig::sgd());
  const double kfac =
      iteration_time(r50(), 32, cal1(), AlgorithmConfig::kfac());
  EXPECT_GT(kfac / sgd, 2.5);
  EXPECT_LT(kfac / sgd, 6.0);
}

TEST(Iteration, KfacInverseCompMatchesFig2Scale) {
  // Fig. 2 quotes ~292 ms of single-GPU inverse computation for ResNet-50.
  // The paper's Eq. (26) exponential cannot price that total (its 3.64 ms
  // per-call floor alone puts 108 inverses at ~390 ms), so the simulator's
  // cubic law lands at ~160 ms — same order, shape preserved (see
  // EXPERIMENTS.md on this inconsistency in the paper's own numbers).
  const auto res =
      simulate_iteration(r50(), 32, cal1(), AlgorithmConfig::kfac());
  EXPECT_GT(res.breakdown.inverse_comp, 0.10);
  EXPECT_LT(res.breakdown.inverse_comp, 0.40);
}

TEST(Iteration, MpdDistributesInverseComputation) {
  // Fig. 2: MPD-KFAC cuts InverseComp from ~292 ms to ~51 ms but pays
  // InverseComm (~134 ms).
  const auto dkfac =
      simulate_iteration(r50(), 32, cal64(), AlgorithmConfig::dkfac());
  const auto mpd =
      simulate_iteration(r50(), 32, cal64(), AlgorithmConfig::mpd_kfac());
  EXPECT_LT(mpd.breakdown.inverse_comp, 0.4 * dkfac.breakdown.inverse_comp);
  EXPECT_EQ(dkfac.breakdown.inverse_comm, 0.0);
  EXPECT_GT(mpd.breakdown.inverse_comm, 0.02);
}

TEST(Iteration, FactorCommPresentInDistributedKfac) {
  const auto res =
      simulate_iteration(r50(), 32, cal64(), AlgorithmConfig::dkfac());
  EXPECT_GT(res.breakdown.factor_comm, 0.05);
  // Factor traffic exceeds gradient traffic (Section III-A): with WFBP the
  // exposed gradient tail must be smaller than the bulk factor comm.
  EXPECT_GT(res.breakdown.factor_comm, res.breakdown.grad_comm);
}

TEST(Iteration, SpdBeatsBothBaselinesOnAllPaperModels) {
  // Table III: SPD-KFAC is 10-35% faster than D-KFAC and 13-19% faster
  // than MPD-KFAC (we assert improvement, with loose shape bounds).
  for (const auto& spec : models::paper_models()) {
    const std::size_t batch = spec.default_batch;
    const double dkfac =
        iteration_time(spec, batch, cal64(), AlgorithmConfig::dkfac());
    const double mpd =
        iteration_time(spec, batch, cal64(), AlgorithmConfig::mpd_kfac());
    const double spd =
        iteration_time(spec, batch, cal64(), AlgorithmConfig::spd_kfac());
    EXPECT_LT(spd, dkfac) << spec.name;
    EXPECT_LT(spd, mpd) << spec.name;
    const double sp1 = dkfac / spd;
    EXPECT_GT(sp1, 1.05) << spec.name;
    EXPECT_LT(sp1, 2.0) << spec.name;
  }
}

TEST(Iteration, SpdHidesMostFactorCommunication) {
  // Fig. 10: the pipelined schedule hides 50-84% of factor-aggregation
  // communication; require at least ~40% hidden for every paper model.
  for (const auto& spec : models::paper_models()) {
    const auto res = simulate_iteration(spec, spec.default_batch, cal64(),
                                        AlgorithmConfig::spd_kfac());
    EXPECT_GT(res.factor_comm_hidden_fraction(), 0.4) << spec.name;
  }
}

TEST(Iteration, PipelineVariantOrderingMatchesFig10) {
  // Fig. 10 ordering for exposed FactorComm time:
  //   LW w/o TF is worst (startup-dominated), threshold fusion improves on
  //   Naive, and optimal fusion is best.
  auto cfg_with = [](FactorCommMode mode) {
    AlgorithmConfig cfg = AlgorithmConfig::dkfac();
    cfg.factor_comm = mode;
    cfg.name = "variant";
    return cfg;
  };
  for (const auto& spec : models::paper_models()) {
    const std::size_t batch = spec.default_batch;
    auto exposed = [&](FactorCommMode mode) {
      return simulate_iteration(spec, batch, cal64(), cfg_with(mode))
          .breakdown.factor_comm;
    };
    const double naive = exposed(FactorCommMode::kNaive);
    const double lw = exposed(FactorCommMode::kLayerWise);
    const double ttf = exposed(FactorCommMode::kThresholdFuse);
    const double otf = exposed(FactorCommMode::kOptimalFuse);
    EXPECT_GT(lw, naive) << spec.name;   // no fusion pays 2L startups
    EXPECT_LT(otf, naive) << spec.name;  // optimal fusion wins
    EXPECT_LE(otf, ttf * 1.001) << spec.name;
  }
}

TEST(Iteration, LbpBeatsPlacementBaselinesOnInversePhase) {
  // Fig. 12: LBP's InverseComp+InverseComm beats Non-Dist and Seq-Dist.
  auto cfg_with = [](InverseMode mode) {
    AlgorithmConfig cfg = AlgorithmConfig::dkfac();
    cfg.inverse = mode;
    return cfg;
  };
  for (const auto& spec : models::paper_models()) {
    const std::size_t batch = spec.default_batch;
    auto inverse_cost = [&](InverseMode mode) {
      const auto b =
          simulate_iteration(spec, batch, cal64(), cfg_with(mode)).breakdown;
      return b.inverse_comp + b.inverse_comm;
    };
    const double nondist = inverse_cost(InverseMode::kLocalAll);
    const double seq = inverse_cost(InverseMode::kSeqDist);
    const double lbp = inverse_cost(InverseMode::kLBP);
    EXPECT_LT(lbp, nondist) << spec.name;
    EXPECT_LT(lbp, seq) << spec.name;
  }
}

TEST(Iteration, SeqDistLosesToNonDistOnDenseNet) {
  // The paper's standout observation (Figs. 9 and 12): on DenseNet-201 the
  // broadcast overhead of Seq-Dist outweighs the distributed-compute gain.
  const auto spec = models::densenet201();
  auto cfg_with = [](InverseMode mode) {
    AlgorithmConfig cfg = AlgorithmConfig::dkfac();
    cfg.inverse = mode;
    return cfg;
  };
  auto inverse_cost = [&](InverseMode mode) {
    const auto b = simulate_iteration(spec, spec.default_batch, cal64(),
                                      cfg_with(mode))
                       .breakdown;
    return b.inverse_comp + b.inverse_comm;
  };
  EXPECT_GT(inverse_cost(InverseMode::kSeqDist),
            inverse_cost(InverseMode::kLocalAll));
}

TEST(Iteration, AblationBothOptimizationsContribute) {
  // Fig. 13: +Pipe-LBP and -Pipe+LBP each beat -Pipe-LBP; +Pipe+LBP wins.
  auto make = [](FactorCommMode fc, InverseMode inv) {
    AlgorithmConfig cfg = AlgorithmConfig::dkfac();
    cfg.factor_comm = fc;
    cfg.inverse = inv;
    return cfg;
  };
  for (const auto& spec : models::paper_models()) {
    const std::size_t batch = spec.default_batch;
    const double base = iteration_time(
        spec, batch, cal64(),
        make(FactorCommMode::kBulk, InverseMode::kLocalAll));
    const double pipe = iteration_time(
        spec, batch, cal64(),
        make(FactorCommMode::kOptimalFuse, InverseMode::kLocalAll));
    const double lbp = iteration_time(
        spec, batch, cal64(), make(FactorCommMode::kBulk, InverseMode::kLBP));
    const double both = iteration_time(
        spec, batch, cal64(),
        make(FactorCommMode::kOptimalFuse, InverseMode::kLBP));
    EXPECT_LT(pipe, base) << spec.name;
    EXPECT_LT(lbp, base) << spec.name;
    EXPECT_LE(both, pipe) << spec.name;
    EXPECT_LE(both, lbp) << spec.name;
  }
}

TEST(Iteration, BreakdownSumsToTotal) {
  for (const AlgorithmConfig& cfg :
       {AlgorithmConfig::sgd(), AlgorithmConfig::dkfac(),
        AlgorithmConfig::mpd_kfac(), AlgorithmConfig::spd_kfac()}) {
    const auto res = simulate_iteration(r50(), 32, cal64(), cfg);
    EXPECT_NEAR(res.breakdown.total(), res.total, 1e-9) << cfg.name;
  }
}

TEST(Iteration, SpdPlacementHasNctsAndCts) {
  const auto res =
      simulate_iteration(r50(), 32, cal64(), AlgorithmConfig::spd_kfac());
  EXPECT_GT(res.placement.num_ncts(), 0u);
  EXPECT_GT(res.placement.num_cts(), 0u);
  EXPECT_TRUE(res.placement.valid(2 * r50().num_layers()));
}

TEST(Iteration, ScalesAcrossWorldSizes) {
  // Distributed overheads appear as the cluster grows; SPD-KFAC must keep
  // its advantage at every world size the fabric model covers.
  for (int world : {4, 16, 64}) {
    const auto cal = perf::ClusterCalibration::paper_fabric(world);
    const double dkfac =
        iteration_time(r50(), 32, cal, AlgorithmConfig::dkfac());
    const double spd =
        iteration_time(r50(), 32, cal, AlgorithmConfig::spd_kfac());
    EXPECT_LT(spd, dkfac) << "world=" << world;
  }
}

TEST(Iteration, SingleLayerModelWorksUnderEveryAlgorithm) {
  models::ModelSpec tiny = r50();
  tiny.layers.resize(1);
  for (const AlgorithmConfig& cfg :
       {AlgorithmConfig::sgd(), AlgorithmConfig::kfac(),
        AlgorithmConfig::dkfac(), AlgorithmConfig::mpd_kfac(),
        AlgorithmConfig::spd_kfac()}) {
    const auto res = simulate_iteration(tiny, 4, cal64(), cfg);
    EXPECT_GT(res.total, 0.0) << cfg.name;
    EXPECT_NEAR(res.breakdown.total(), res.total, 1e-9) << cfg.name;
  }
}

TEST(Iteration, TwoGpuClusterStillShowsOrdering) {
  const auto cal = perf::ClusterCalibration::paper_fabric(2);
  const double dkfac =
      iteration_time(r50(), 8, cal, AlgorithmConfig::dkfac());
  const double spd =
      iteration_time(r50(), 8, cal, AlgorithmConfig::spd_kfac());
  EXPECT_LT(spd, dkfac);
}

TEST(Iteration, BatchSizeScalesComputeNotComm) {
  // Doubling the batch grows FF&BP and FactorComp but leaves the factor
  // communication volume unchanged (factor sizes depend on dims only).
  const auto small =
      simulate_iteration(r50(), 16, cal64(), AlgorithmConfig::dkfac());
  const auto large =
      simulate_iteration(r50(), 32, cal64(), AlgorithmConfig::dkfac());
  EXPECT_GT(large.breakdown.ff_bp, 1.8 * small.breakdown.ff_bp);
  EXPECT_NEAR(large.factor_comm_busy, small.factor_comm_busy, 1e-12);
}

TEST(Iteration, VggExtensionModelsSimulate) {
  // The VGG extension models (massive fc factors) must flow through every
  // algorithm; with a 25k-dim A factor the CT path is heavily exercised.
  const auto spec = models::vgg16();
  const double dkfac =
      iteration_time(spec, 16, cal64(), AlgorithmConfig::dkfac());
  const double spd =
      iteration_time(spec, 16, cal64(), AlgorithmConfig::spd_kfac());
  EXPECT_GT(dkfac, 0.0);
  EXPECT_LT(spd, dkfac);
}

TEST(Iteration, EmptyModelThrows) {
  models::ModelSpec empty;
  EXPECT_THROW(
      simulate_iteration(empty, 32, cal64(), AlgorithmConfig::sgd()),
      std::invalid_argument);
}

TEST(Iteration, DeterministicResults) {
  const auto a =
      simulate_iteration(r50(), 32, cal64(), AlgorithmConfig::spd_kfac());
  const auto b =
      simulate_iteration(r50(), 32, cal64(), AlgorithmConfig::spd_kfac());
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.breakdown.factor_comm, b.breakdown.factor_comm);
}

TEST(Iteration, ComputeStreamsPriceTheRuntimeOverlap) {
  // The compute_streams knob models the runtime's work-stealing pool: with
  // S > 1 factor builds and inverses overlap the pass kernels (and each
  // other), so the priced iteration can only shrink — while the *plan*
  // (fusion groups, collective order, placement) must not move at all.
  for (const auto make :
       {AlgorithmConfig::spd_kfac, AlgorithmConfig::dkfac}) {
    AlgorithmConfig serial = make();
    AlgorithmConfig pooled = make();
    pooled.compute_streams = 4;
    const auto one = simulate_iteration(r50(), 32, cal64(), serial);
    const auto four = simulate_iteration(r50(), 32, cal64(), pooled);
    EXPECT_LE(four.total, one.total) << serial.name;
    ASSERT_EQ(one.plan.tasks.size(), four.plan.tasks.size()) << serial.name;
    EXPECT_EQ(one.plan.collective_order(), four.plan.collective_order())
        << serial.name;
    ASSERT_EQ(one.collectives.size(), four.collectives.size()) << serial.name;
    for (std::size_t i = 0; i < one.collectives.size(); ++i) {
      EXPECT_EQ(one.collectives[i].label, four.collectives[i].label);
      EXPECT_EQ(one.collectives[i].seconds, four.collectives[i].seconds);
    }
  }
  // Second-order work dominated by factor builds and inverses must shrink
  // strictly once it can spread over four workers.
  AlgorithmConfig pooled = AlgorithmConfig::spd_kfac();
  pooled.compute_streams = 4;
  EXPECT_LT(simulate_iteration(r50(), 32, cal64(), pooled).total,
            simulate_iteration(r50(), 32, cal64(), AlgorithmConfig::spd_kfac())
                .total);
}

TEST(Iteration, SgdPlanIgnoresFactorCommMode) {
  // A first-order plan has no factor phase, so factor_comm (whose shared
  // PlanShape default is kOptimalFuse) cannot move SGD's schedule or price.
  const auto reference =
      simulate_iteration(r50(), 32, cal64(), AlgorithmConfig::sgd());
  for (const FactorCommMode mode :
       {FactorCommMode::kBulk, FactorCommMode::kNaive,
        FactorCommMode::kLayerWise, FactorCommMode::kThresholdFuse,
        FactorCommMode::kOptimalFuse}) {
    AlgorithmConfig cfg = AlgorithmConfig::sgd();
    cfg.factor_comm = mode;
    const auto res = simulate_iteration(r50(), 32, cal64(), cfg);
    EXPECT_EQ(sched::plan_to_text(res.plan),
              sched::plan_to_text(reference.plan))
        << sched::to_string(mode);
    EXPECT_EQ(res.total, reference.total) << sched::to_string(mode);
  }
}

TEST(Iteration, ComputeStreamsMustBePositive) {
  AlgorithmConfig cfg = AlgorithmConfig::spd_kfac();
  cfg.compute_streams = 0;
  EXPECT_THROW(simulate_iteration(r50(), 32, cal64(), cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace spdkfac::sim
