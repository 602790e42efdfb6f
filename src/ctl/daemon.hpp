// spdkfacd's engine room: a distributed K-FAC training service wrapping
// DistKfacOptimizer behind a ctl Unix-domain socket (ROADMAP item 4,
// modeled on slash2's ctlsvr/slictl split).
//
// Thread ownership — the determinism story:
//
//   * The daemon launches `world` in-process ranks (comm::Cluster), each
//     training the same small-CNN replica the bench harness uses.
//   * Rank 0's training thread ALSO owns the ctl socket: between steps it
//     polls for connections and executes every command synchronously.
//     Commands therefore only ever observe the optimizer at a step
//     boundary, with no concurrent reader — reads (status/profile/plan/
//     cache/metrics/trace) cannot perturb training, which is what the
//     ctl-hammering determinism test locks down bitwise.
//   * Mutations (set/replan) and step/shutdown requests are recorded into
//     a Directive and published to the worker ranks through a
//     mutex+condvar log; every rank applies the same directives in the
//     same order at the same step boundaries, so plan-shaping state stays
//     rank-identical (the cluster's collective-order contract).
//
// Commands: status | profile | plan | cache | replan | set k=v | step [n]
//           | metrics | trace | shutdown
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "comm/cluster.hpp"
#include "core/dist_kfac.hpp"
#include "tensor/matrix.hpp"

namespace spdkfac::ctl {

struct DaemonOptions {
  /// Ctl socket path (validated against sun_path).  Required.
  std::string socket_path;
  int world = 2;

  /// Steps queued at startup (more can be queued live via `step n`).
  std::size_t auto_steps = 0;
  /// true: keep serving ctl after the queue drains, until `shutdown` (the
  /// daemon mode).  false: exit once the queue drains (batch mode; tests).
  bool run_until_shutdown = true;

  /// Optimizer configuration; mutable at runtime through `set`.
  core::DistKfacOptions optimizer;

  // Model/data shape — the bench harness's small-CNN defaults (DistTrainConfig
  // in bench/bench_util.hpp), so daemon runs are comparable with it and
  // reproducible from seeds.
  std::size_t in_channels = 1;
  std::size_t image_hw = 12;
  std::size_t conv1 = 8;
  std::size_t conv2 = 16;
  std::size_t classes = 5;
  std::size_t batch = 8;
  std::uint64_t init_seed = 99;  ///< shared: identical replicas
  std::uint64_t data_seed = 3;
  double noise = 0.0;
  bool hooked = true;  ///< in-pass submission (Fig. 6) vs post-hoc
};

class Daemon {
 public:
  /// Validates the options (socket path, optimizer settings, world >= 1);
  /// throws std::invalid_argument on any problem.
  explicit Daemon(DaemonOptions options);

  /// Runs the cluster until shutdown; blocks the calling thread.  The ctl
  /// socket exists for the whole run.  Rethrows a rank's fatal error.
  void run();

  /// Thread-safe external stop (SIGINT handler, tests): the next ctl poll
  /// tick turns it into a shutdown directive.
  void request_shutdown() noexcept { external_shutdown_.store(true); }

  /// Steps completed by rank 0 (thread-safe; live during run()).
  std::size_t steps_completed() const noexcept {
    return steps_done_.load();
  }

  /// Rank 0's final layer weights — valid after run() returns; the
  /// determinism suite compares these bitwise across daemon runs.
  const std::vector<tensor::Matrix>& rank0_weights() const noexcept {
    return rank0_weights_;
  }

 private:
  /// One synchronized instruction from rank 0 to every worker.
  struct Directive {
    std::vector<std::pair<std::string, double>> sets;
    bool replan = false;
    bool step = false;
    bool shutdown = false;
  };

  void rank_main(comm::Communicator& comm);
  void worker_loop(comm::Communicator& comm,
                   core::DistKfacOptimizer& optimizer,
                   const std::function<void()>& train_one_step);

  void publish(Directive directive);
  Directive await_directive(int rank);

  DaemonOptions opts_;

  // Directive log: rank 0 appends, workers consume at their own cursor.
  // Consumed-by-all prefixes are trimmed, so memory stays bounded by the
  // worst rank skew (one step) instead of growing with the run.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Directive> log_;
  std::uint64_t log_base_ = 0;  ///< index of log_.front()
  std::vector<std::uint64_t> cursor_;  ///< per worker rank, absolute

  std::atomic<bool> external_shutdown_{false};
  std::atomic<std::size_t> steps_done_{0};
  std::vector<tensor::Matrix> rank0_weights_;
};

}  // namespace spdkfac::ctl
