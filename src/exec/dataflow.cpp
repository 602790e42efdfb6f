#include "exec/dataflow.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace spdkfac::exec {

void DataflowExecutor::set_observer(TaskObserver observer) {
  std::lock_guard lock(mutex_);
  if (retired_ != nodes_.size()) {
    throw std::logic_error(
        "DataflowExecutor::set_observer: graph in flight");
  }
  observer_ = std::move(observer);
}

void DataflowExecutor::run_compute(int id) {
  Node& node = nodes_[static_cast<std::size_t>(id)];
  try {
    const auto t0 = std::chrono::steady_clock::now();
    node.work();
    if (observer_) {
      observer_(id, std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    }
  } catch (...) {
    // Whichever pool thread ran the node (a worker or the member), the
    // failure takes one path: poison the graph, so wait() rethrows it on
    // the waiting thread.
    abort(std::current_exception());
  }
  std::unique_lock lock(mutex_);
  --inflight_;
  retire_locked(id);
  dispatch(lock);
}

void DataflowExecutor::begin(std::vector<Node> nodes, std::vector<int> lane,
                             ThreadPool& pool) {
  // Validate the graph before touching any member, so a rejected begin()
  // leaves the executor reusable.
  std::size_t submissions = 0;
  for (const Node& n : nodes) {
    if (n.kind == NodeKind::kSubmission) ++submissions;
    if (n.external_deps < 0) {
      throw std::invalid_argument("DataflowExecutor: negative external_deps");
    }
    for (int d : n.deps) {
      if (d < 0 || static_cast<std::size_t>(d) >= nodes.size()) {
        throw std::invalid_argument("DataflowExecutor: dep out of range");
      }
    }
  }
  if (lane.size() != submissions) {
    throw std::invalid_argument(
        "DataflowExecutor: lane must list every submission node");
  }
  for (int id : lane) {
    if (id < 0 || static_cast<std::size_t>(id) >= nodes.size() ||
        nodes[static_cast<std::size_t>(id)].kind != NodeKind::kSubmission) {
      throw std::invalid_argument(
          "DataflowExecutor: lane entry is not a submission node");
    }
  }

  std::unique_lock lock(mutex_);
  if (retired_ != nodes_.size()) {
    throw std::logic_error(
        "DataflowExecutor::begin: previous graph still in flight");
  }
  nodes_ = std::move(nodes);
  lane_ = std::move(lane);
  pool_ = &pool;
  lane_head_ = 0;
  retired_ = 0;
  poisoned_ = false;
  error_ = nullptr;
  inflight_ = 0;
  settled_.store(nodes_.empty(), std::memory_order_release);
  states_.assign(nodes_.size(), NodeState{});
  successors_.assign(nodes_.size(), {});
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    states_[i].remaining =
        n.deps.size() + static_cast<std::size_t>(n.external_deps);
    for (int d : n.deps) {
      successors_[static_cast<std::size_t>(d)].push_back(static_cast<int>(i));
    }
  }

  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (states_[i].remaining == 0) release_locked(static_cast<int>(i));
  }
  dispatch(lock);
}

void DataflowExecutor::release_locked(int id) {
  Node& node = nodes_[static_cast<std::size_t>(id)];
  switch (node.kind) {
    case NodeKind::kNoop:
      retire_locked(id);
      break;
    case NodeKind::kCompute:
      ++inflight_;
      // Workers get the node at once, in release order: deferring every
      // submit past the lock measured 1-2% slower hooked steps.  Only a
      // workerless pool's member runs a submit inline, and the task
      // retires under this lock, so there the node waits in ready_ for
      // dispatch().
      if (pool_->workers() == 0) {
        ready_.push_back(id);
      } else {
        pool_->submit([this, id] { run_compute(id); });
      }
      break;
    case NodeKind::kSubmission:
      states_[static_cast<std::size_t>(id)].lane_ready = true;
      advance_lane_locked();
      break;
  }
}

void DataflowExecutor::retire_locked(int id) {
  NodeState& state = states_[static_cast<std::size_t>(id)];
  if (state.retired) {
    // Tolerated on a poisoned graph: an engine completion can race the
    // abort that already gave up on the node.
    if (poisoned_) return;
    throw std::logic_error("DataflowExecutor: node retired twice");
  }
  state.retired = true;
  ++retired_;
  signal_if_settled_locked();
  // No successor releases on a poisoned graph: it is being torn down, and
  // firing more collectives against a dead rank would just hang the pump
  // longer.
  if (poisoned_) return;
  for (int s : successors_[static_cast<std::size_t>(id)]) {
    if (--states_[static_cast<std::size_t>(s)].remaining == 0) {
      release_locked(s);
    }
  }
}

void DataflowExecutor::advance_lane_locked() {
  // Fire every dep-ready submission at the head of the lane, in lane order.
  // Actions run under the lock: a concurrent retire elsewhere cannot slip a
  // later collective onto the engine first.
  while (!poisoned_ && lane_head_ < lane_.size() &&
         states_[static_cast<std::size_t>(lane_[lane_head_])].lane_ready) {
    const int id = lane_[lane_head_++];
    nodes_[static_cast<std::size_t>(id)].work();
  }
}

void DataflowExecutor::dispatch(std::unique_lock<std::mutex>& lock) {
  const std::vector<int> ready = std::exchange(ready_, {});
  ThreadPool* pool = pool_;
  lock.unlock();
  for (const int id : ready) {
    pool->submit([this, id] { run_compute(id); });
  }
}

void DataflowExecutor::satisfy(int id) {
  std::unique_lock lock(mutex_);
  if (poisoned_) return;
  if (--states_[static_cast<std::size_t>(id)].remaining == 0) {
    release_locked(id);
  }
  dispatch(lock);
}

void DataflowExecutor::complete(int id) {
  std::unique_lock lock(mutex_);
  if (poisoned_) return;
  retire_locked(id);
  dispatch(lock);
}

void DataflowExecutor::abort(std::exception_ptr error) {
  std::lock_guard lock(mutex_);
  // The first failure wins; with no graph in flight there is nothing to
  // poison.
  if (poisoned_ || retired_ == nodes_.size()) return;
  poisoned_ = true;
  error_ = std::move(error);
  signal_if_settled_locked();
}

void DataflowExecutor::signal_if_settled_locked() {
  if (retired_ != nodes_.size() && !(poisoned_ && inflight_ == 0)) return;
  settled_.store(true, std::memory_order_release);
  done_cv_.notify_all();
  pool_->wake();
}

void DataflowExecutor::wait() {
  std::unique_lock lock(mutex_);
  if (!settled_.load(std::memory_order_relaxed) && pool_->is_member()) {
    // The member is one of the pool's compute threads: it works through
    // the queues until the graph settles instead of sleeping.
    ThreadPool* pool = pool_;
    lock.unlock();
    pool->run_until(settled_);
    lock.lock();
  }
  done_cv_.wait(lock, [this] {
    return settled_.load(std::memory_order_relaxed);
  });
  if (!poisoned_) return;
  // Poisoned teardown: declare the graph over (unreleased nodes are
  // abandoned, the executor becomes reusable) and surface the error once.
  retired_ = nodes_.size();
  std::exception_ptr err = std::exchange(error_, nullptr);
  if (err) {
    lock.unlock();
    std::rethrow_exception(err);
  }
}

bool DataflowExecutor::idle() const {
  std::lock_guard lock(mutex_);
  return retired_ == nodes_.size();
}

}  // namespace spdkfac::exec
