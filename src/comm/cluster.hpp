// Worker cluster and rank-scoped communicator.
//
// Cluster::run(P, fn) spawns P workers, each receiving a Communicator bound
// to its rank.  The Communicator offers MPI/NCCL-style collectives (ring
// all-reduce by default, the alternative all-reduce algorithms of
// collectives.hpp selectable per call, and a binomial-tree broadcast)
// built on a pluggable point-to-point Transport (comm/transport.hpp):
// in-process threads by default, or one process per rank talking over
// Unix-domain sockets, substituting for the paper's 64-GPU InfiniBand
// fabric while preserving collective semantics:
//   * all ranks must call collectives in the same order with matching sizes;
//   * results are bitwise identical on every rank (ring reduction applies
//     additions in a rank-independent order per segment) — on every backend.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "comm/topology.hpp"
#include "comm/transport.hpp"

namespace spdkfac::comm {

enum class ReduceOp {
  kSum,
  kAverage,  // sum / world size, applied once after reduction
  kMax,
};

/// All-reduce algorithm (see collectives.hpp for the implementations and
/// AlgorithmSelector for the size/topology-based choice).
enum class AllReduceAlgo {
  kRing,             ///< reduce-scatter + all-gather ring (bandwidth-optimal)
  kHalvingDoubling,  ///< Rabenseifner recursive halving/doubling (low latency)
  kFlatTree,         ///< reduce to rank 0 + binomial broadcast
  kHierarchical,     ///< intra-node reduce, leader ring, intra-node broadcast
  kAuto,             ///< pick per message size/topology via AlgorithmSelector
};

/// Rank-local view of the cluster; all collective calls are blocking and
/// must be invoked by every rank (in the same order) to make progress.
/// Binds a Transport (which knows rank/size and moves bytes) to a Topology
/// (which shapes the hierarchical collective and kAuto selection); borrows
/// both, so they must outlive the communicator.
class Communicator {
 public:
  Communicator(Transport& transport, const Topology& topo)
      : transport_(&transport),
        topology_(&topo),
        rank_(transport.rank()),
        size_(transport.size()) {}

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return size_; }

  /// The transport carrying this communicator's traffic.
  Transport& transport() noexcept { return *transport_; }

  /// Blocks until all ranks arrive.
  void barrier();

  /// Point-to-point: copies `payload` into the (rank -> dst) mailbox.
  /// `tag`/`plan_task`/`codec` ride in the frame header on out-of-process
  /// transports (codec != 0 marks an encoded payload whose length is the
  /// wire-double count; see comm/codec.hpp).
  void send(int dst, std::span<const double> payload, std::uint16_t tag = 0,
            int plan_task = -1, std::uint16_t codec = 0);

  /// Blocking receive of the next message from `src`; the message length
  /// must equal out.size() (throws std::runtime_error otherwise).
  void recv(int src, std::span<double> out);

  /// In-place all-reduce; every rank ends with the identical reduced
  /// vector.  The default ring (reduce-scatter + all-gather, 2*(P-1)
  /// steps) is bandwidth-optimal; kAuto selects per message size and
  /// cluster topology.  Every algorithm preserves the collective contract:
  /// results are bitwise identical on every rank, though different
  /// algorithms may round differently (floating-point reassociation).
  void all_reduce(std::span<double> data, ReduceOp op = ReduceOp::kSum,
                  AllReduceAlgo algo = AllReduceAlgo::kRing);

  /// The cluster shape this communicator runs on (flat unless the Cluster
  /// was built from an explicit Topology).
  const Topology& topology() const noexcept { return *topology_; }

  /// Binomial-tree broadcast from `root`; in-place on non-root ranks.
  void broadcast(std::span<double> data, int root);

 private:
  Transport* transport_;
  const Topology* topology_;
  int rank_;
  int size_;
};

/// Options for Cluster::launch_collect / launch.
struct LaunchOptions {
  /// Deadline for every blocking transport primitive on every rank
  /// (Transport::set_timeout); <= 0 keeps the wait-forever behavior.  With
  /// a timeout armed a dead peer surfaces as RankFailure instead of a hang.
  double comm_timeout_s = 0.0;
  /// Launcher-side deadline for draining each rank's result pipe; <= 0
  /// waits forever.  On expiry the straggler is SIGKILLed and reported in
  /// the LaunchFailure — the backstop that keeps a wedged mesh from
  /// wedging the launcher too.
  double collect_timeout_s = 0.0;
  /// Deterministic fault injection: the spec's victim rank gets its
  /// transport wrapped by with_fault_injection().  Default: disabled.
  FaultSpec fault;
};

/// Post-mortem of one worker rank after a launch.
struct RankExit {
  int rank = -1;
  bool wrote_result = false;  ///< full result payload arrived on the pipe
  bool signaled = false;      ///< process backends: terminated by a signal
  int term_signal = 0;        ///< WTERMSIG when signaled
  int exit_status = 0;        ///< WEXITSTATUS when it exited
  std::string error;          ///< thread backend: the exception's what()

  bool clean() const noexcept {
    return wrote_result && !signaled && exit_status == 0 && error.empty();
  }

  /// "rank 2: killed by signal 9 (Killed)" / "rank 1: exit status 3" / ...
  std::string describe() const;
};

/// Thrown by launch_collect when any rank fails.  Carries the per-rank
/// post-mortems (which rank died how: signal, exit status, in-thread
/// exception) and the results the surviving ranks still delivered — which
/// is how the fault-injection suite asserts every survivor observed the
/// planted death.
class LaunchFailure : public std::runtime_error {
 public:
  LaunchFailure(const std::string& message, std::vector<RankExit> exits,
                std::vector<std::vector<double>> partial)
      : std::runtime_error(message),
        exits_(std::move(exits)),
        partial_(std::move(partial)) {}

  const std::vector<RankExit>& exits() const noexcept { return exits_; }

  const std::vector<std::vector<double>>& partial_results() const noexcept {
    return partial_;
  }

  std::vector<int> failed_ranks() const {
    std::vector<int> failed;
    for (const RankExit& e : exits_) {
      if (!e.clean()) failed.push_back(e.rank);
    }
    return failed;
  }

 private:
  std::vector<RankExit> exits_;
  std::vector<std::vector<double>> partial_;  ///< index == rank; failed empty
};

/// Builds per-rank transports and drives worker threads or processes.
class Cluster {
 public:
  explicit Cluster(int size);

  /// Cluster shaped as `topo` (topo.world_size() ranks); the hierarchical
  /// collective and kAuto selection use the shape and link models.
  explicit Cluster(const Topology& topo);

  int size() const noexcept { return size_; }
  const Topology& topology() const noexcept { return topology_; }

  /// Runs `fn(comm)` on one in-process thread per rank and joins them all.
  /// If any worker throws, the first exception is rethrown on the caller's
  /// thread after all workers finish (workers must not deadlock on a peer
  /// that died: by construction collectives are only entered by all ranks).
  void run(const std::function<void(Communicator&)>& fn);

  /// Convenience: builds a cluster of `size` ranks and runs `fn` in-process.
  static void launch(int size, const std::function<void(Communicator&)>& fn);

  /// Convenience: builds a cluster shaped as `topo` and runs `fn` in-process.
  static void launch(const Topology& topo,
                     const std::function<void(Communicator&)>& fn);

  /// Runs `fn` once per rank over the chosen transport and returns each
  /// rank's result vector, index == rank.  kInProcess spawns threads;
  /// kSocket forks one worker *process* per rank (the ranks rendezvous
  /// under a private temp directory), ships each rank's result back over a
  /// pipe, and reaps the children.  Any rank failure (exception, abnormal
  /// exit, death by signal) throws LaunchFailure in the launcher after all
  /// workers finish, carrying per-rank post-mortems and the survivors'
  /// results.  A failed pipe() or fork() kills and reaps the ranks already
  /// forked, then throws std::runtime_error.
  static std::vector<std::vector<double>> launch_collect(
      TransportKind kind, const Topology& topo,
      const std::function<std::vector<double>(Communicator&)>& fn,
      const LaunchOptions& opts = {});

  /// launch_collect for workers with no result to report.
  static void launch(TransportKind kind, const Topology& topo,
                     const std::function<void(Communicator&)>& fn,
                     const LaunchOptions& opts = {});

 private:
  int size_;
  Topology topology_;
  std::shared_ptr<InProcessGroup> group_;
};

}  // namespace spdkfac::comm
