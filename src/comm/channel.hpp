// Point-to-point message channels between in-process workers.
//
// The paper runs on 64 GPUs over NCCL/Horovod.  This reproduction replaces
// the network with an in-process cluster: each worker is a thread and each
// directed (src, dst) pair owns a Channel — an unbounded FIFO mailbox of
// double vectors protected by a mutex/condvar.  All collectives in
// collectives.cpp are built from these sends/recvs, so data really moves
// between workers and aggregation-order determinism can be tested.
//
// Messages carry a wire-style tag so the fault-tolerance control traffic
// (heartbeats, failure notices — comm/fault.hpp) can ride the same
// mailboxes as data; recv_for() is the deadline-aware receive the
// in-process transport's failure detection is built on.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

namespace spdkfac::comm {

/// Unbounded SPSC/MPSC mailbox carrying tagged vectors of doubles.
///
/// send() copies the payload; recv() blocks until a message is available and
/// moves it out.  Messages from a single sender are delivered in order.
class Channel {
 public:
  struct Message {
    std::uint16_t tag = 0;
    std::vector<double> payload;
  };

  void send(std::span<const double> payload, std::uint16_t tag = 0) {
    {
      std::lock_guard lock(mutex_);
      queue_.push_back(
          Message{tag, std::vector<double>(payload.begin(), payload.end())});
    }
    cv_.notify_one();
  }

  Message recv() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return !queue_.empty(); });
    Message msg = std::move(queue_.front());
    queue_.pop_front();
    return msg;
  }

  /// Deadline-aware receive: blocks up to `timeout_s` seconds; nullopt on
  /// expiry with no message.
  std::optional<Message> recv_for(double timeout_s) {
    std::unique_lock lock(mutex_);
    if (!cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                      [this] { return !queue_.empty(); })) {
      return std::nullopt;
    }
    Message msg = std::move(queue_.front());
    queue_.pop_front();
    return msg;
  }

  std::size_t pending() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
};

/// Reusable N-party barrier (sense-reversing via generation counter).
///
/// Per-party arrival stamps make a timed-out wait diagnosable: the caller
/// learns *which* rank never arrived, which is what turns a dead peer into
/// a RankFailure naming it instead of an anonymous hang.
class Barrier {
 public:
  explicit Barrier(std::size_t parties)
      : parties_(parties), stamps_(parties, 0) {}

  /// Arrives as `who` and waits up to `timeout_s` (forever when <= 0).
  /// Returns -1 on success; on expiry, the lowest party index that had not
  /// arrived for this generation (every timed-out waiter computes the same
  /// index).  A timed-out barrier is poisoned: the missing arrival can
  /// complete it later, but the waiters that threw are already gone.
  int arrive_and_wait_for(std::size_t who, double timeout_s) {
    std::unique_lock lock(mutex_);
    const std::size_t gen = generation_;
    stamps_[who] = gen + 1;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return -1;
    }
    const auto arrived_this_gen = [this, gen] { return generation_ != gen; };
    if (timeout_s <= 0.0) {
      cv_.wait(lock, arrived_this_gen);
      return -1;
    }
    if (cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                     arrived_this_gen)) {
      return -1;
    }
    for (std::size_t p = 0; p < parties_; ++p) {
      if (stamps_[p] != gen + 1) return static_cast<int>(p);
    }
    return -1;  // everyone arrived while we were scanning — not a failure
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::size_t generation_ = 0;
  std::vector<std::size_t> stamps_;  ///< per party: generation + 1 at arrival
};

}  // namespace spdkfac::comm
