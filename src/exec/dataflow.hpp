// Dependency-driven task-graph executor with an ordered submission lane.
//
// This is how a sched::IterationPlan becomes a real compute/communication
// dataflow: core::DistKfacOptimizer translates the plan one task to one
// node (same ids) and hands the graph here.  Compute nodes (factor builds,
// damped inverses, the update) dispatch to the rank's ThreadPool the moment
// their predecessors retire; *submission* nodes model the plan's collectives
// — their action enqueues an operation on the asynchronous comm engine, and
// the node retires only when the caller reports the operation (plus any
// post-processing) finished via complete().
//
// The submission lane is the correctness keystone: collective operations
// must hit every rank's engine in the plan's canonical order (the engine's
// cross-rank ordering contract, enforced byte-for-byte by the sched
// equivalence suite), yet under concurrency predecessors retire in
// nondeterministic order.  Lane nodes therefore fire strictly in the order
// given to begin(): a dep-ready collective waits until every earlier lane
// node has fired.  Execution order on the engine is then identical on every
// rank and identical to the serial walk this executor replaced.
//
// The exec layer knows nothing of plans or engines (it sits below tensor);
// nodes carry opaque actions, which is what lets the same executor drive
// hooked steps (externally-gated nodes released from pass hooks) and
// post-hoc steps (the same gates released in a replayed pass walk).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "exec/thread_pool.hpp"

namespace spdkfac::exec {

class DataflowExecutor {
 public:
  enum class NodeKind {
    kCompute,     ///< `work` runs on a thread of the pool, retires itself
    kSubmission,  ///< `work` enqueues an async op; retired by complete()
    kNoop,        ///< placeholder (e.g. a peer rank's inverse); retires instantly
  };

  struct Node {
    NodeKind kind = NodeKind::kNoop;
    /// Action.  A compute action that throws poisons the graph as abort()
    /// does, and wait() rethrows the exception.  Submission actions must
    /// not throw, must be non-blocking and must not call back into the
    /// executor (they run under its lock to keep the lane ordered).
    std::function<void()> work;
    std::vector<int> deps;  ///< node indices that must retire first
    /// Gates released by satisfy() — pass events the graph cannot see
    /// (layer captured its K-FAC rows, step() reached the drain, ...).
    int external_deps = 0;
  };

  /// Observes compute-node executions: called once per kCompute node, right
  /// after its `work` returned, with the node id and the wall-clock seconds
  /// the work took.  This is the execution layer's profiling tap — the
  /// online profiler hangs off it to learn real per-task timings without
  /// the node bodies timing themselves.  Runs on the pool thread that ran
  /// the work (a worker, or the member), so it must be thread-safe for
  /// concurrent *distinct* nodes and must not block or call back into the
  /// executor.
  using TaskObserver = std::function<void(int id, double seconds)>;

  DataflowExecutor() = default;

  /// Installs (or clears, with nullptr) the compute-task observer.  Applies
  /// to graphs begun afterwards; must not be called while a graph is in
  /// flight.
  void set_observer(TaskObserver observer);

  /// Installs a new graph and starts every dependency-free node.  `lane`
  /// lists the kSubmission node indices in mandatory submission order (it
  /// must contain exactly the submission nodes).  Requires the previous
  /// graph to have fully retired (throws std::logic_error otherwise).
  /// Compute nodes run on `pool`, which must outlive the graph; in a
  /// workerless pool they all run on its member, inline when the member
  /// releases them and inside wait() when another thread does.
  void begin(std::vector<Node> nodes, std::vector<int> lane, ThreadPool& pool);

  /// Releases one external gate of `id`.
  void satisfy(int id);

  /// Retires submission node `id`; call when its async operation and any
  /// post-processing finished.
  void complete(int id);

  /// Poisons the in-flight graph: no further node is released, fired or
  /// retired; already-dispatched pool work finishes, then wait() unblocks
  /// and rethrows `error` (once).  How a dead rank tears down a schedule
  /// mid-iteration without deadlocking on nodes whose collectives will
  /// never complete.  satisfy()/complete() on a poisoned graph are no-ops,
  /// so late engine-completion callbacks are harmless; so is abort() with
  /// no graph in flight.  The executor is reusable after wait() returns;
  /// begin() clears the poison.
  void abort(std::exception_ptr error);

  /// Blocks until every node of the current graph retired, or — after
  /// abort() — until dispatched work drained; then rethrows the abort
  /// error (first wait() only).  Called on the pool's member thread, it
  /// runs queued pool tasks meanwhile and is woken by the graph settling.
  void wait();

  /// True when no graph is in flight (before the first begin() or after
  /// every node retired).
  bool idle() const;

  std::size_t size() const noexcept { return nodes_.size(); }

 private:
  struct NodeState {
    std::size_t remaining = 0;  ///< unretired deps + unsatisfied gates
    bool lane_ready = false;    ///< submission node cleared its deps
    bool retired = false;
  };

  /// Dispatches a node whose deps all retired, per kind: a compute node
  /// goes to the pool (via ready_ in a workerless one), a submission to
  /// the lane, a noop retires.
  void release_locked(int id);
  void retire_locked(int id);
  void advance_lane_locked();
  /// Unlocks, then submits the compute nodes waiting in ready_.
  void dispatch(std::unique_lock<std::mutex>& lock);
  /// The pool task of a compute node: runs its work, timing it for the
  /// observer (an exception it throws aborts the graph), then retires it.
  void run_compute(int id);
  /// Publishes settled_ (and wakes every waiter) once the graph retired,
  /// or was poisoned with no pool work in flight.
  void signal_if_settled_locked();

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  TaskObserver observer_;  ///< read outside the lock; set only when idle
  ThreadPool* pool_ = nullptr;  ///< the pool of the last begin()
  std::vector<Node> nodes_;
  std::vector<NodeState> states_;
  std::vector<std::vector<int>> successors_;
  std::vector<int> lane_;
  std::size_t lane_head_ = 0;
  std::size_t retired_ = 0;
  bool poisoned_ = false;        ///< abort() called for this graph
  std::exception_ptr error_;     ///< rethrown by the first wait() after abort
  std::size_t inflight_ = 0;     ///< compute nodes released, unretired
  std::vector<int> ready_;       ///< released, awaiting a workerless pool
  /// wait()'s condition, readable without the lock (the member's
  /// run_until flag); written under it.
  std::atomic<bool> settled_{true};
};

}  // namespace spdkfac::exec
