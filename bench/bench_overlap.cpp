// Measured (not modeled) executor scaling: trains the same CNN under each
// strategy with 1, 2 and 4 compute threads per rank (pool_size: the rank
// thread alone, or with 1 and 3 work-stealing pool workers), and reports
// real per-step wall-clock plus the hidden-communication fraction.  This is the first physical Fig. 9/10-style overlap measurement
// in the repo: before the exec layer, the "pipelining" only existed in the
// simulator's pricing.
//
// The workload is deliberately compute-heavy (larger factor dims than the
// default small-CNN harness model) so factor builds, inverses and GEMM inner
// loops dominate; with >= 2 hardware cores the step time with workers
// drops strictly below the rank thread's alone on the pipelined strategies.
// On a single-core host the pool can only hide communication waits, so
// expect parity there — the point of the JSON record is tracking the same
// machine across PRs.  Emits BENCH_overlap.json; the companion modeled
// numbers (AlgorithmConfig::compute_streams) land in the same file so the
// runtime and the cost model can be compared per config.
#include "bench_util.hpp"
#include "models/model_spec.hpp"
#include "sim/iteration.hpp"

using namespace spdkfac;

namespace {

constexpr int kSteps = 6;
constexpr std::size_t kThreads[] = {1, 2, 4};

bench::DistTrainConfig heavy_config(core::DistStrategy strategy,
                                    std::size_t threads) {
  bench::DistTrainConfig cfg;
  cfg.optimizer.strategy = strategy;
  cfg.hooked = true;
  cfg.steps = kSteps;
  cfg.world = 2;
  cfg.in_channels = 3;
  cfg.image_hw = 16;
  cfg.conv1 = 16;
  cfg.conv2 = 32;
  cfg.classes = 10;
  cfg.batch = 16;
  cfg.optimizer.pool_size = threads;
  return cfg;
}

}  // namespace

int main() {
  bench::print_header(
      "Overlap", "Measured executor scaling: 1, 2 and 4 compute threads");

  bench::BenchJson json("overlap");
  bench::Table table({"Strategy", "threads", "mean/step (ms)", "p50 (ms)",
                      "p90 (ms)", "overlap frac", "speedup vs 1 thread"});
  for (auto strategy :
       {core::DistStrategy::kMpdKfac, core::DistStrategy::kSpdKfac}) {
    double one_thread_mean = 0.0;
    for (std::size_t threads : kThreads) {
      const bench::DistTrainResult res =
          bench::dist_train(heavy_config(strategy, threads));
      const bench::SampleStats s = bench::stats(res.step_seconds);
      if (threads == 1) one_thread_mean = s.mean;
      const double speedup = s.mean > 0.0 ? one_thread_mean / s.mean : 0.0;
      table.add_row({to_string(strategy), std::to_string(threads),
                     bench::fmt("%.2f", s.mean * 1e3),
                     bench::fmt("%.2f", s.p50 * 1e3),
                     bench::fmt("%.2f", s.p90 * 1e3),
                     bench::fmt("%.2f", res.overlap_fraction),
                     bench::fmt("%.2f", speedup)});
      std::string name = to_string(strategy);
      name += "/threads";
      name += std::to_string(threads);
      json.add_timing(name, s, res.overlap_fraction,
                      {{"pool_size", static_cast<double>(threads)},
                       {"speedup_vs_serial", speedup}});
    }
  }
  table.print();

  // The cost model's view of the same knob: compute_streams prices what the
  // pool does physically.  Same JSON file, "model/" prefix.
  std::printf("\nModeled counterpart (64-GPU calibration, ResNet-50):\n");
  bench::Table model_table({"Config", "iteration (s)", "hidden factor-comm"});
  for (int streams : {1, 2, 4}) {
    sim::AlgorithmConfig cfg = sim::AlgorithmConfig::spd_kfac();
    cfg.compute_streams = streams;
    const auto res = sim::simulate_iteration(models::resnet50(), 32,
                                             bench::cal64(), cfg);
    model_table.add_row({"SPD-KFAC x" + std::to_string(streams),
                         bench::seconds(res.total),
                         bench::fmt("%.2f", res.factor_comm_hidden_fraction())});
    std::string name = "model/SPD-KFAC/streams";
    name += std::to_string(streams);
    json.add_timing(name, {res.total, res.total, res.total},
                    res.factor_comm_hidden_fraction(),
                    {{"compute_streams", static_cast<double>(streams)}});
  }
  model_table.print();

  std::printf(
      "\nEvery row runs the same plan as a work-stealing dataflow on the\n"
      "rank thread plus 0, 1 and 3 pool workers, with collectives on the\n"
      "engine's own pump thread.  Models are bitwise identical across all\n"
      "rows (tests/core/test_determinism.cpp).\n");
  json.write();
  return 0;
}
