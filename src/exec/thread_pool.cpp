#include "exec/thread_pool.hpp"

#include <atomic>
#include <memory>
#include <stdexcept>

namespace spdkfac::exec {

namespace {

/// Worker identity of the calling thread (pool + queue index).
thread_local ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_index = 0;
/// Innermost live membership of the calling thread; it shadows tl_pool.
thread_local ThreadPool::Member* tl_member = nullptr;

constexpr std::size_t kNoQueue = static_cast<std::size_t>(-1);

}  // namespace

ThreadPool* ThreadPool::this_thread_pool() noexcept {
  return tl_member != nullptr ? tl_member->pool_ : tl_pool;
}

bool ThreadPool::is_member() const noexcept {
  return tl_member != nullptr && tl_member->pool_ == this;
}

std::size_t ThreadPool::own_queue() const noexcept {
  if (tl_member != nullptr) {
    return tl_member->pool_ == this ? queues_.size() - 1 : kNoQueue;
  }
  return tl_pool == this ? tl_index : kNoQueue;
}

ThreadPool::Member::Member(ThreadPool& pool) : pool_(&pool), prev_(tl_member) {
  {
    std::lock_guard lock(pool.mutex_);
    if (pool.has_member_) {
      throw std::logic_error("ThreadPool: the pool already has a member");
    }
    pool.has_member_ = true;
  }
  tl_member = this;
}

ThreadPool::Member::~Member() {
  // Unlink from this thread's chain wherever it sits, so memberships that
  // end out of order still leave the innermost live one in effect.
  Member** link = &tl_member;
  while (*link != this) link = &(*link)->prev_;
  *link = prev_;
  std::lock_guard lock(pool_->mutex_);
  pool_->has_member_ = false;
}

ThreadPool::ThreadPool(std::size_t workers) : queues_(workers + 1) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // Workers drain every deque before they exit; without workers, what was
  // queued for the member after it left is still here.
  const std::size_t member = queues_.size() - 1;
  std::unique_lock lock(mutex_);
  std::function<void()> fn;
  while (try_pop(member, fn)) {
    lock.unlock();
    fn();
    fn = nullptr;  // release captures before re-locking
    lock.lock();
  }
}

void ThreadPool::submit(std::function<void()> fn) {
  std::size_t q = own_queue();
  if (threads_.empty() && q != kNoQueue) {
    fn();  // the member is the pool's only thread
    return;
  }
  {
    std::lock_guard lock(mutex_);
    // Workers and the member push to their own deque (popped LIFO for
    // locality); external threads spread round-robin over the workers',
    // or wait for the member of a workerless pool.  Idle siblings steal
    // either way.
    if (q == kNoQueue) {
      q = threads_.empty() ? queues_.size() - 1
                           : next_queue_++ % threads_.size();
    }
    queues_[q].push_back(std::move(fn));
  }
  cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& out) {
  if (!queues_[self].empty()) {  // own work: newest first
    out = std::move(queues_[self].back());
    queues_[self].pop_back();
    return true;
  }
  for (std::size_t k = 1; k < queues_.size(); ++k) {  // steal: oldest first
    const std::size_t victim = (self + k) % queues_.size();
    if (!queues_[victim].empty()) {
      out = std::move(queues_[victim].front());
      queues_[victim].pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_main(std::size_t index) {
  tl_pool = this;
  tl_index = index;
  std::unique_lock lock(mutex_);
  for (;;) {
    std::function<void()> fn;
    if (try_pop(index, fn)) {
      lock.unlock();
      fn();
      fn = nullptr;  // release captures before re-locking
      lock.lock();
      continue;
    }
    if (stopping_) return;  // every deque drained
    cv_.wait(lock);
  }
}

void ThreadPool::run_until(const std::atomic<bool>& done) {
  if (!is_member()) {
    throw std::logic_error("ThreadPool::run_until: caller is not the member");
  }
  const std::size_t self = queues_.size() - 1;
  std::unique_lock lock(mutex_);
  // The flag is checked first: once the caller's condition holds it stops
  // helping, and whatever is still queued is the workers' to finish.
  while (!done.load(std::memory_order_acquire)) {
    std::function<void()> fn;
    if (try_pop(self, fn)) {
      lock.unlock();
      fn();
      fn = nullptr;  // release captures before re-locking
      lock.lock();
      continue;
    }
    cv_.wait(lock);
  }
}

void ThreadPool::wake() {
  // Taking the lock orders this after a member's flag check: it is either
  // already waiting (and notified) or will see the flag set.
  { std::lock_guard lock(mutex_); }
  cv_.notify_all();
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (n + grain - 1) / grain;
  if (chunks <= 1) {
    body(0, n);
    return;
  }
  if (threads_.empty()) {
    // Same chunk boundaries as the concurrent path: bodies that reduce into
    // per-chunk slots (combined in chunk order) stay bitwise identical.
    for (std::size_t b = 0; b < n; b += grain) {
      body(b, std::min(n, b + grain));
    }
    return;
  }

  // Chunks are claimed from a shared counter by the caller and up to
  // chunks-1 helper tasks; the caller always participates, so the loop
  // completes even if every helper is stuck behind other queued work
  // (including the nested-parallel_for-from-a-pool-task case).
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t chunks = 0, n = 0, grain = 0;
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::mutex mutex;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();
  state->chunks = chunks;
  state->n = n;
  state->grain = grain;
  state->body = &body;

  auto run_chunks = [](const std::shared_ptr<State>& s) {
    for (;;) {
      const std::size_t c = s->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= s->chunks) return;
      const std::size_t begin = c * s->grain;
      (*s->body)(begin, std::min(s->n, begin + s->grain));
      if (s->done.fetch_add(1, std::memory_order_acq_rel) + 1 == s->chunks) {
        std::lock_guard lock(s->mutex);
        s->cv.notify_all();
      }
    }
  };

  const std::size_t helpers = std::min(threads_.size(), chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([state, run_chunks] { run_chunks(state); });
  }
  run_chunks(state);

  std::unique_lock lock(state->mutex);
  state->cv.wait(lock, [&state] {
    return state->done.load(std::memory_order_acquire) == state->chunks;
  });
  // Late helpers find next >= chunks and return without touching `body`,
  // which dies with this frame; `state` they share keeps them safe.
}

}  // namespace spdkfac::exec
