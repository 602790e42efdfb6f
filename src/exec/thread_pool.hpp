// Work-stealing thread pool — the execution substrate of the exec layer.
//
// SPD-KFAC's pipelining only pays off when factor computation, inversion and
// communication progress *concurrently*; this pool is where every layer's
// compute runs: the DataflowExecutor dispatches the IterationPlan's compute
// tasks and the collectives' post-processing to it, and the tensor kernels
// and layer passes split their loops across it via parallel_for.  (The
// AsyncCommEngine pumps collectives on its own thread, never on a pool.)
//
// Besides the threads it spawns, a pool can have one *member*: a thread it
// did not spawn (the rank thread that built the optimizer) that joins it for
// a scope (ThreadPool::Member).  The member has its own deque; its
// parallel_for calls split across the workers, and while it waits for a
// graph it runs queued tasks (run_until).  A rank so computes on exactly
// `workers() + 1` threads, and a task always runs on one of them: with no
// workers, the member is the pool's only thread.
//
// Scheduling is work-stealing: each worker (and the member) owns a deque
// and pops its own work LIFO (locality), stealing FIFO from a sibling when
// empty.  The deques share one mutex/condition pair — tasks here are chunky
// (GEMM blocks, factor builds, sample chunks), so coarse synchronization
// costs nothing while staying trivially ThreadSanitizer-clean.
//
// Blocking discipline (what makes the whole system deadlock-free): tasks
// submitted to the pool must never block on other pool work except through
// parallel_for, whose caller claims chunks itself and therefore always makes
// progress.  Nothing in the runtime blocks a pool task on a peer rank
// either: collectives run on the engine's pump thread, and their
// completions reach the pool as ready-to-run tasks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace spdkfac::exec {

class ThreadPool {
 public:
  /// Spawns `workers` threads.  0 is allowed: the member is then the
  /// pool's only compute thread, and parallel_for runs serially.
  explicit ThreadPool(std::size_t workers);

  /// Finishes every queued task, then joins the workers.  The member, if
  /// any, must have left first; tasks still queued for it in a workerless
  /// pool run on the destroying thread.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Spawned worker threads (the member is not counted).
  std::size_t workers() const noexcept { return threads_.size(); }

  /// Scoped membership of the constructing thread.  While it lives, that
  /// thread's this_thread_pool() is `pool`, its submits go to the member
  /// deque, and it may call run_until().  The destructor restores the
  /// thread's previous ambient pool; it must run on the constructing
  /// thread, before the pool dies.  A pool has at most one member at a
  /// time (std::logic_error otherwise).
  class Member {
   public:
    explicit Member(ThreadPool& pool);
    ~Member();

    Member(const Member&) = delete;
    Member& operator=(const Member&) = delete;

   private:
    friend class ThreadPool;
    ThreadPool* pool_;
    Member* prev_;  ///< the membership this one shadows on the same thread
  };

  /// Runs `fn` on a thread of the pool, a worker or the member.  Workers
  /// and the member queue on their own deque, other threads on a worker's;
  /// in a workerless pool the member runs its own submits inline, and
  /// every other thread's queue for the member (run inside run_until()).
  /// So a caller that may be the only thread must not hold a lock `fn`
  /// takes.  Tasks must not throw (the pool terminates on escaped
  /// exceptions, like a thread).
  void submit(std::function<void()> fn);

  /// Splits [0, n) into chunks of at most `grain` indices and runs
  /// `body(begin, end)` for each, the caller claiming chunks alongside the
  /// workers; returns when every chunk finished.  Chunk boundaries depend
  /// only on n and grain — never on the worker count — so any body writing
  /// disjoint outputs per index produces bitwise-identical results for
  /// every pool size.  Safe to call from inside a pool task (the nested
  /// caller drives its own chunks to completion).
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Runs queued tasks on the calling thread, which must be this pool's
  /// member, until `done` reads true.  Whoever sets `done` must call
  /// wake() afterwards; the member sleeps until then or until work
  /// arrives, never polling.
  void run_until(const std::atomic<bool>& done);

  /// Wakes a member sleeping in run_until() to re-check its flag.
  void wake();

  /// True when the calling thread is this pool's member.
  bool is_member() const noexcept;

  /// The pool the calling thread computes on — the pool of its innermost
  /// live Member, else the pool it is a worker of — or nullptr.
  static ThreadPool* this_thread_pool() noexcept;

 private:
  void worker_main(std::size_t index);
  bool try_pop(std::size_t self, std::function<void()>& out);
  /// The deque of the calling thread in this pool, or npos for outsiders.
  std::size_t own_queue() const noexcept;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// One deque per worker, then the member's (always present, empty while
  /// the pool has no member).
  std::vector<std::deque<std::function<void()>>> queues_;
  std::size_t next_queue_ = 0;  ///< round-robin target for external submits
  bool stopping_ = false;
  bool has_member_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace spdkfac::exec
