// Distributed K-FAC on the worker cluster: four data-parallel workers
// train replicas of a small CNN on sharded synthetic data under each of the
// three strategies (D-KFAC, MPD-KFAC, SPD-KFAC), verifying that
//   * the final models are identical across workers (synchronous training),
//   * all three strategies produce the same numerics (the paper's central
//     correctness claim), and
//   * SPD-KFAC genuinely overlaps factor communication with computation
//     (shown via the async engine's operation records), and
//   * training makes progress without saturating: each strategy's final
//     loss lies strictly between 0 and its first loss (exit status 1
//     otherwise, so a loss column of zeros cannot pass for a result).
//
// By default the workers are threads of this process; --transport=socket
// switches the cluster onto the process-per-rank backend — one OS process
// per worker talking over a Unix-domain socket mesh — without changing the
// D-KFAC and MPD-KFAC losses/weights by one bit (the multi-process
// quickstart of docs/ARCHITECTURE.md "Transports").  SPD-KFAC plans its
// fusion groups from live timings, so its all-reduce association, and with
// it the last digit or two of its loss, can differ from run to run on
// either backend:
//
//   $ ./examples/distributed_training                       # threads
//   $ ./examples/distributed_training --transport=socket    # processes, UDS
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench_util.hpp"
#include "tensor/linalg.hpp"

using namespace spdkfac;

namespace {

constexpr int kSteps = 6;
// Small enough that 6 steps do not drive the softmax into saturation (at
// 0.1 every strategy's cross-entropy reached exactly 0).
constexpr double kLr = 0.02;

bench::DistTrainResult train(core::DistStrategy strategy,
                             comm::TransportKind transport) {
  // Hook mode (Fig. 6): factor and WFBP-gradient all-reduces are submitted
  // to the background engine *during* the passes.
  bench::DistTrainConfig cfg;
  cfg.optimizer.strategy = strategy;
  cfg.optimizer.transport = transport;
  cfg.steps = kSteps;
  cfg.image_hw = 8;
  cfg.conv1 = 4;
  cfg.conv2 = 8;
  cfg.classes = 4;
  cfg.init_seed = 1234;
  cfg.data_seed = 5;
  cfg.noise = 0.25;
  cfg.optimizer.lr = kLr;
  cfg.optimizer.damping = 0.1;
  return bench::dist_train(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  comm::TransportKind transport = comm::TransportKind::kInProcess;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--transport=", 0) == 0) {
      try {
        transport = comm::transport_from_string(arg.substr(12));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--transport=inproc|socket]\n", argv[0]);
      return 2;
    }
  }

  std::printf("Training a CNN on 4 %s workers (%s transport), %d steps...\n\n",
              transport == comm::TransportKind::kInProcess
                  ? "in-process"
                  : "process-per-rank",
              comm::to_string(transport), kSteps);
  const bench::DistTrainResult dkfac =
      train(core::DistStrategy::kDKfac, transport);
  const bench::DistTrainResult mpd =
      train(core::DistStrategy::kMpdKfac, transport);
  const bench::DistTrainResult spd =
      train(core::DistStrategy::kSpdKfac, transport);

  std::printf(
      "strategy   first-loss            final-loss            wall(s)   "
      "broadcast-CTs\n");
  bool progressed = true;
  for (const auto& [name, run] :
       {std::pair{"D-KFAC  ", &dkfac}, std::pair{"MPD-KFAC", &mpd},
        std::pair{"SPD-KFAC", &spd}}) {
    std::printf("%s   %.17g   %.17g   %7.3f   %zu\n", name,
                run->rank0_first_loss, run->rank0_loss, run->wall_seconds,
                run->broadcast_cts);
    progressed = progressed && run->rank0_loss > 0.0 &&
                 run->rank0_loss < run->rank0_first_loss;
  }
  if (!progressed) {
    std::printf("\nFAIL: a final loss is not strictly between 0 and its "
                "first loss\n");
  }

  double max_diff = 0.0;
  for (std::size_t l = 0; l < dkfac.rank0_weights.size(); ++l) {
    max_diff = std::max(max_diff,
                        tensor::max_abs_diff(dkfac.rank0_weights[l],
                                             spd.rank0_weights[l]));
    max_diff = std::max(max_diff,
                        tensor::max_abs_diff(mpd.rank0_weights[l],
                                             spd.rank0_weights[l]));
  }
  std::printf(
      "\nMax |weight difference| across strategies after %d steps: %.3e\n"
      "(only floating-point reassociation of the all-reduce; the paper:\n"
      "\"SPD-KFAC should generate identical numerical results ... as\n"
      "D-KFAC\").\n",
      kSteps, max_diff);
  return max_diff < 1e-8 && progressed ? 0 : 1;
}
