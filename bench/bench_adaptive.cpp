// Adaptive re-planning vs a frozen warm-up schedule (Section IV-A online
// profiling, made quantitative).
//
// Part 1 (modeled): a run whose compute timings drift across epochs — the
// cold warm-up iterations run factor builds several times slower than the
// settled steady state (clocks ramping, caches filling, cuDNN autotuning)
// — is priced twice per epoch: once with the schedule re-planned from that
// epoch's profile (the adaptive loop) and once with the warm-up schedule
// frozen (one-shot offline profiling).  Both are priced under the *same*
// epoch calibration, so the delta is pure schedule quality: the frozen
// plan was fused for wide pass gaps, and once the factors speed up its
// many small all-reduces pay the startup cost in a tail the pass can no
// longer hide.
//
// Part 2 (measured): a real in-process distributed run in live adaptive
// mode — online profiler + profile sync + plan cache — reporting per-step
// wall times, re-plan count, cache hit rate (steady state must hit), and
// the profiler's measured collective cost next to the planning model's
// prediction.
//
// Emits BENCH_adaptive.json.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "models/model_spec.hpp"
#include "sched/planner.hpp"
#include "sim/iteration.hpp"

using namespace spdkfac;

namespace {

constexpr int kWorld = 16;
constexpr std::size_t kBatch = 32;
// Factor-compute slowdown per epoch relative to the settled machine: the
// warm-up epoch is 6x slower, later epochs settle and then overshoot (the
// drift the frozen schedule never learns about).
constexpr double kWarmupDrift = 6.0;
constexpr double kDrift[] = {6.0, 2.0, 1.0, 0.5, 0.2};

perf::ClusterCalibration epoch_cal(double drift) {
  perf::ClusterCalibration cal = perf::ClusterCalibration::paper_fabric(kWorld);
  cal.compute.factor_flops_per_s /= drift;
  return cal;
}

}  // namespace

int main() {
  bench::print_header(
      "Adaptive", "Online profiling & re-planning vs a frozen warm-up plan");

  bench::BenchJson json("adaptive");
  const models::ModelSpec model = models::resnet50();

  // -------------------------------------------------------------------
  // Part 1: modeled schedule quality under profile drift.
  // -------------------------------------------------------------------
  sim::AlgorithmConfig cfg = sim::AlgorithmConfig::spd_kfac();
  const sched::PassTiming warmup_profile = sched::timing_from_model(
      model, kBatch, epoch_cal(kWarmupDrift).compute, /*second_order=*/true);

  std::printf("%s, batch %zu, P=%d, SPD-KFAC (optimal fusion + LBP)\n\n",
              model.name.c_str(), kBatch, kWorld);
  std::printf("  %-8s %-14s %-14s %-10s %-18s\n", "epoch", "adaptive (s)",
              "frozen (s)", "saved", "hidden comm a/f");
  for (std::size_t e = 0; e < std::size(kDrift); ++e) {
    const perf::ClusterCalibration cal = epoch_cal(kDrift[e]);
    const sched::PassTiming epoch_profile = sched::timing_from_model(
        model, kBatch, cal.compute, /*second_order=*/true);

    sim::AlgorithmConfig adaptive = cfg;
    adaptive.profile = epoch_profile;  // re-planned for this epoch
    sim::AlgorithmConfig frozen = cfg;
    frozen.profile = warmup_profile;  // epoch-0 schedule, never updated

    const sim::IterationResult a =
        sim::simulate_iteration(model, kBatch, cal, adaptive);
    const sim::IterationResult f =
        sim::simulate_iteration(model, kBatch, cal, frozen);
    const double saved = (f.total - a.total) / f.total;
    std::printf("  x%-7.2f %-14.4f %-14.4f %8.1f%%  %5.1f%% / %5.1f%%\n",
                kDrift[e], a.total, f.total, 100.0 * saved,
                100.0 * a.factor_comm_hidden_fraction(),
                100.0 * f.factor_comm_hidden_fraction());
    char drift_name[32];
    std::snprintf(drift_name, sizeof drift_name, "modeled_drift_x%g",
                  kDrift[e]);
    json.add(drift_name,
             {{"adaptive_s", a.total},
              {"frozen_s", f.total},
              {"saved_fraction", saved},
              {"adaptive_hidden", a.factor_comm_hidden_fraction()},
              {"frozen_hidden", f.factor_comm_hidden_fraction()}});
  }
  std::printf(
      "\n  (both columns priced under the epoch's calibration; the frozen\n"
      "   warm-up plan loses once the factors outrun the wide fusion gaps\n"
      "   it was built for)\n");

  // -------------------------------------------------------------------
  // Part 2: measured live-mode adaptivity on the in-process cluster.
  // -------------------------------------------------------------------
  bench::print_header("Adaptive/live",
                      "Measured: online profiler + plan cache, real cluster");
  constexpr int kSteps = 10;
  constexpr std::size_t kReplanInterval = 3;
  std::vector<double> step_seconds;
  std::size_t cache_hits = 0, cache_misses = 0, replans = 0, sync_ops = 0;
  double measured_per_element = 0.0;
  bench::DistTrainConfig train_cfg;  // the shared small-CNN harness shape
  train_cfg.world = 2;

  comm::Cluster::launch(train_cfg.world, [&](comm::Communicator& comm) {
    tensor::Rng init(4242);
    nn::Sequential net =
        nn::make_small_cnn(train_cfg.in_channels, train_cfg.image_hw,
                           train_cfg.conv1, train_cfg.conv2,
                           train_cfg.classes, init);
    auto layers = net.preconditioned_layers();
    core::DistKfacOptions opts;
    opts.strategy = core::DistStrategy::kSpdKfac;
    opts.replan_interval = kReplanInterval;
    opts.lr = 0.05;
    opts.damping = 0.1;
    core::DistKfacOptimizer optimizer(layers, comm, opts);

    nn::SyntheticClassification data(train_cfg.classes, train_cfg.in_channels,
                                     train_cfg.image_hw, 11);
    tensor::Rng shard(17 + comm.rank());
    nn::SoftmaxCrossEntropy loss;
    for (int s = 0; s < kSteps; ++s) {
      auto batch = data.sample(train_cfg.batch, shard);
      const auto t0 = std::chrono::steady_clock::now();
      const nn::PassHooks hooks = optimizer.pass_hooks();
      loss.forward(net.forward(batch.inputs, hooks), batch.labels);
      net.backward(loss.backward(), hooks);
      optimizer.step();
      if (comm.rank() == 0) {
        step_seconds.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count());
      }
    }
    if (comm.rank() == 0) {
      cache_hits = optimizer.plan_cache().hits();
      cache_misses = optimizer.plan_cache().misses();
      replans = optimizer.replan_count();
      measured_per_element =
          optimizer.profiler().collective_seconds_per_element();
      for (const auto& rec : optimizer.comm_records()) {
        if (rec.plan_task < 0) ++sync_ops;
      }
    }
  });

  const bench::SampleStats s = bench::stats(step_seconds);
  std::printf("  steps %d, replan every %zu: %zu re-plans, %zu sync ops\n",
              kSteps, kReplanInterval, replans, sync_ops);
  std::printf("  plan cache: %zu hits / %zu misses (plans are rebuilt when\n"
              "  the timing or step kind changes)\n",
              cache_hits, cache_misses);
  std::printf("  step time mean %.4fs p50 %.4fs p90 %.4fs\n", s.mean, s.p50,
              s.p90);
  std::printf("  measured collective cost %.3g s/elem (planning model beta "
              "%.3g)\n",
              measured_per_element,
              core::DistKfacOptions{}.allreduce_model.model.beta);
  json.add("live_adaptive",
           {{"mean_step_s", s.mean},
            {"p50_step_s", s.p50},
            {"p90_step_s", s.p90},
            {"replans", static_cast<double>(replans)},
            {"profile_syncs", static_cast<double>(sync_ops)},
            {"cache_hits", static_cast<double>(cache_hits)},
            {"cache_misses", static_cast<double>(cache_misses)},
            {"measured_s_per_element", measured_per_element}});

  json.write();
  return 0;
}
