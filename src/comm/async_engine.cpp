#include "comm/async_engine.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "comm/fault.hpp"

namespace spdkfac::comm {

AsyncCommEngine::AsyncCommEngine(Communicator& comm)
    : comm_(comm),
      epoch_(std::chrono::steady_clock::now()),
      pump_([this] { pump(); }) {}

AsyncCommEngine::~AsyncCommEngine() {
  // Every submitted op references caller-owned buffers and possibly this
  // engine's listener; the pump drains the queue before it exits.
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_one();
  pump_.join();
}

double AsyncCommEngine::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

CommHandle AsyncCommEngine::all_reduce_async(std::span<double> data,
                                             ReduceOp op, std::string name,
                                             AllReduceAlgo algo,
                                             int plan_task) {
  return submit(
      [data, op, algo](Communicator& comm) {
        comm.all_reduce(data, op, algo);
      },
      std::move(name), data.size(), plan_task, data.data());
}

CommHandle AsyncCommEngine::broadcast_async(std::span<double> data, int root,
                                            std::string name, int plan_task) {
  return submit(
      [data, root](Communicator& comm) { comm.broadcast(data, root); },
      std::move(name), data.size(), plan_task, data.data());
}

CommHandle AsyncCommEngine::submit(std::function<void(Communicator&)> fn,
                                   std::string name, std::size_t elements,
                                   int plan_task, const double* data) {
  CommHandle handle;
  handle.state_ = std::make_shared<CommHandle::State>();
  Op op{std::move(fn), handle.state_, std::move(name), elements, now_s(),
        plan_task, data};
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(op));
  }
  work_cv_.notify_one();
  return handle;
}

void AsyncCommEngine::set_completion_listener(
    std::function<void(const OpRecord&)> listener) {
  std::lock_guard lock(mutex_);
  listener_ = std::move(listener);
}

void AsyncCommEngine::wait_all() {
  std::unique_lock lock(mutex_);
  drained_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

std::vector<OpRecord> AsyncCommEngine::records(std::size_t first) const {
  std::lock_guard lock(records_mutex_);
  first = std::min(first, records_.size());
  return {records_.begin() + static_cast<std::ptrdiff_t>(first),
          records_.end()};
}

void AsyncCommEngine::pump() {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return !queue_.empty() || stopping_; });
    if (queue_.empty()) return;  // stopping, and every op ran
    Op op = std::move(queue_.front());
    queue_.pop_front();
    const std::function<void(const OpRecord&)> listener = listener_;
    busy_ = true;
    lock.unlock();
    execute(op, listener);
    lock.lock();
    busy_ = false;
    if (queue_.empty()) drained_cv_.notify_all();
  }
}

void AsyncCommEngine::execute(
    Op& op, const std::function<void(const OpRecord&)>& listener) {
  OpRecord record;
  record.name = op.name;
  record.submit_s = op.submit_s;
  record.elements = op.elements;
  record.data = op.data;
  record.plan_task = op.plan_task;

  // Let blocked peers know this rank is alive even when it spent the gap
  // since the last op computing rather than communicating.
  comm_.transport().heartbeat();

  std::exception_ptr err;
  {
    std::lock_guard lock(mutex_);
    err = error_;  // already poisoned: fail fast, don't touch the wire
  }
  record.start_s = now_s();
  if (!err) {
    try {
      op.fn(comm_);
    } catch (RankFailure& failure) {
      // Surface the schedule-level context: which collective, which
      // sched-plan task.  current_exception() is captured *after* the
      // annotation, so the stored error carries it.
      failure.set_context(op.name, op.plan_task);
      err = std::current_exception();
    } catch (...) {
      err = std::current_exception();
    }
    if (err) {
      std::lock_guard lock(mutex_);
      if (!error_) error_ = err;  // first failure wins
    }
  }
  record.end_s = now_s();
  if (err) {
    record.failed = true;
    try {
      std::rethrow_exception(err);
    } catch (const std::exception& e) {
      record.error = e.what();
    } catch (...) {
      record.error = "unknown error";
    }
  }

  {
    std::lock_guard lock(records_mutex_);
    records_.push_back(record);
  }
  {
    std::lock_guard lock(op.state->mutex);
    op.state->error = err;
    op.state->done.store(true, std::memory_order_release);
  }
  op.state->cv.notify_all();
  if (listener) listener(record);
  completed_.fetch_add(1, std::memory_order_release);
}

}  // namespace spdkfac::comm
