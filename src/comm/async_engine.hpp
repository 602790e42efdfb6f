// Asynchronous background communication engine — the Horovod analogue.
//
// SPD-KFAC's pipelining (paper Section IV-A / V-A) relies on submitting
// all-reduce and broadcast operations asynchronously ("hvd.allreduce_async_",
// "hvd.broadcast_async_") so they execute in the background while the caller
// keeps computing the next layer's Kronecker factor.  This engine reproduces
// that execution model: operations are queued and executed in submission
// order by the engine's own *pump* thread — one operation at a time, FIFO,
// exactly like Horovod's dedicated background thread.  A collective blocks
// on its peers there, so it never holds one of the rank's compute threads.
//
// Callers synchronize through CommHandle::wait() or through the completion
// listener, which is how the DataflowExecutor turns op completions into
// successor work without blocking anything.
//
// Correctness contract (same as Horovod after negotiation): every rank must
// submit the same sequence of collective operations with matching shapes.
// The SPD-KFAC optimizer guarantees this by deriving the schedule
// deterministically from the model structure on every rank and submitting
// through the DataflowExecutor's ordered lane.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "comm/cluster.hpp"

namespace spdkfac::comm {

/// Completion handle for an asynchronously submitted operation.
class CommHandle {
 public:
  CommHandle() = default;

  bool valid() const noexcept { return state_ != nullptr; }

  /// True once the pump finished the operation.
  bool done() const {
    return state_ != nullptr && state_->done.load(std::memory_order_acquire);
  }

  /// Blocks until the operation completes, then rethrows its error if it
  /// failed (RankFailure for a dead peer).  No-op for invalid handles.
  /// Must not be called from the completion listener (the pump thread).
  void wait() const {
    if (!state_) return;
    std::unique_lock lock(state_->mutex);
    state_->cv.wait(lock,
                    [s = state_.get()] { return s->done.load(); });
    if (state_->error) std::rethrow_exception(state_->error);
  }

  /// True once the operation completed *with* an error (wait() would
  /// throw).  Never true before done().
  bool failed() const {
    if (!state_ || !state_->done.load(std::memory_order_acquire)) {
      return false;
    }
    std::lock_guard lock(state_->mutex);
    return state_->error != nullptr;
  }

 private:
  friend class AsyncCommEngine;
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    std::atomic<bool> done{false};
    std::exception_ptr error;  ///< set before done when the op failed
  };
  std::shared_ptr<State> state_;
};

/// Wall-clock record of one executed operation (for overlap diagnostics and
/// the sched-plan equivalence suite).
struct OpRecord {
  std::string name;
  double submit_s = 0.0;  ///< seconds since engine start, at submission
  double start_s = 0.0;   ///< when the pump began executing
  double end_s = 0.0;     ///< when it finished
  std::size_t elements = 0;
  /// Payload the operation ran in place over (null for custom submit()
  /// ops).  Diagnostic only — the buffer may be reused after completion;
  /// tests use it to verify plan collectives execute zero-copy on arena
  /// slabs rather than staging copies.
  const double* data = nullptr;
  /// Id of the sched::IterationPlan task this operation executes, or -1 for
  /// out-of-plan traffic (e.g. the factor-time profile sync).
  int plan_task = -1;
  /// True when the operation threw instead of completing (a dead peer, or
  /// fail-fast after an earlier failure poisoned the engine); `error`
  /// carries its what().  Failed records must not feed the profiler.
  bool failed = false;
  std::string error;

  /// Pump-side execution time — what the online profiler accumulates as
  /// the measured cost of this collective.
  double duration_s() const noexcept { return end_s - start_s; }
};

/// Per-rank background communication engine (see file comment).
///
/// The referenced Communicator is used exclusively by the pump once the
/// engine is constructed; callers must route *all* collectives through the
/// engine (submit + wait models a synchronous call) so the channel message
/// streams of different operations never interleave.
class AsyncCommEngine {
 public:
  /// Starts the pump thread.
  explicit AsyncCommEngine(Communicator& comm);

  /// Drains the queue (every submitted operation completes), then joins
  /// the pump.
  ~AsyncCommEngine();

  AsyncCommEngine(const AsyncCommEngine&) = delete;
  AsyncCommEngine& operator=(const AsyncCommEngine&) = delete;

  /// Queues an in-place all-reduce over `data`.  The caller must keep the
  /// underlying buffer alive and untouched until the handle completes.
  /// `algo` picks the collective algorithm (kAuto: per size/topology); all
  /// ranks must pass the same algorithm for the same operation.
  /// `plan_task` tags the execution record with the schedule-plan task the
  /// operation realizes (-1: out-of-plan traffic).
  CommHandle all_reduce_async(std::span<double> data,
                              ReduceOp op = ReduceOp::kAverage,
                              std::string name = "allreduce",
                              AllReduceAlgo algo = AllReduceAlgo::kRing,
                              int plan_task = -1);

  /// Queues an in-place broadcast from `root`.
  CommHandle broadcast_async(std::span<double> data, int root,
                             std::string name = "broadcast",
                             int plan_task = -1);

  /// Queues an arbitrary operation on the pump (escape hatch used by tests
  /// and by fused multi-tensor operations).  `data` tags the record with
  /// the payload pointer (see OpRecord::data).
  CommHandle submit(std::function<void(Communicator&)> fn, std::string name,
                    std::size_t elements = 0, int plan_task = -1,
                    const double* data = nullptr);

  /// Invoked by the pump after each operation completes (after its handle
  /// is signalled), with the operation's record.  The listener must not
  /// block; it is how the dataflow layer reacts to collective completions
  /// (it typically enqueues post-processing on the compute pool).  Install before
  /// submitting the operations it should observe.
  void set_completion_listener(std::function<void(const OpRecord&)> listener);

  /// Blocks until every operation submitted so far has completed.  Must not
  /// be called from the completion listener.  Never throws — a failure is observable
  /// per-handle (wait()), via failed records, or through error().
  void wait_all();

  /// First failure the pump observed (nullptr while healthy).  Once set,
  /// every subsequently pumped operation fails fast without touching the
  /// transport — a dead peer must not hang the rest of the schedule.
  std::exception_ptr error() const {
    std::lock_guard lock(mutex_);
    return error_;
  }

  bool failed() const { return error() != nullptr; }

  /// Number of operations fully executed.
  std::size_t completed() const noexcept {
    return completed_.load(std::memory_order_acquire);
  }

  /// Snapshot of execution records from index `first` on, in completion
  /// order (call after wait_all for a stable view).  Records are never
  /// trimmed, so a caller harvesting step by step passes its cursor instead
  /// of re-copying the whole run.
  std::vector<OpRecord> records(std::size_t first = 0) const;

  /// Seconds since engine start, on the clock the records use — lets
  /// callers place their own events (pass boundaries, drains) on the same
  /// timeline for overlap accounting.
  double now_s() const;

  int rank() const noexcept { return comm_.rank(); }
  int size() const noexcept { return comm_.size(); }

 private:
  struct Op {
    std::function<void(Communicator&)> fn;
    std::shared_ptr<CommHandle::State> state;
    std::string name;
    std::size_t elements = 0;
    double submit_s = 0.0;
    int plan_task = -1;
    const double* data = nullptr;
  };

  /// The pump thread: runs queued ops FIFO, sleeping while the queue is
  /// empty, until the destructor stops it.
  void pump();
  /// Executes one op, records it, signals its handle and the listener.
  void execute(Op& op, const std::function<void(const OpRecord&)>& listener);

  Communicator& comm_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;     ///< queue non-empty, or stopping
  std::condition_variable drained_cv_;  ///< queue empty and pump idle
  std::deque<Op> queue_;
  bool busy_ = false;      ///< the pump is executing an op
  bool stopping_ = false;  ///< the destructor asked the pump to exit
  std::exception_ptr error_;  ///< first pump failure; poisons later ops
  std::atomic<std::size_t> completed_{0};
  std::function<void(const OpRecord&)> listener_;

  mutable std::mutex records_mutex_;
  std::vector<OpRecord> records_;

  std::thread pump_;  ///< last: starts after every member it reads
};

}  // namespace spdkfac::comm
