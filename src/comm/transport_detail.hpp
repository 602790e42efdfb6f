// Internals shared by the out-of-process transport backends (not part of
// the public comm API).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "exec/thread_pool.hpp"

namespace spdkfac::comm::detail {

/// Per-peer send queues pumped on a dedicated exec worker — what makes
/// Transport::send non-blocking over a bounded carrier (socket buffer, shm
/// ring).  send() enqueues an encoded frame and returns; a flush task per
/// peer drains that peer's queue FIFO through `write` (which may block on
/// the carrier).  The single pump worker serializes writes across peers,
/// mirroring the AsyncCommEngine's one-pump discipline.
///
/// A write failure (peer died, carrier torn) is captured per peer and
/// rethrown from the next send() to that peer and from flush() — pool tasks
/// must not throw.  The other peers' queues keep draining: one dead peer
/// must not silence this rank toward the live ones, whose frames (already
/// queued, or pings) may be exactly what they are blocked on.
class FrameSender {
 public:
  /// `write(dst, bytes)` delivers one encoded frame to `dst`, blocking as
  /// needed; it must be callable from the pump worker.
  FrameSender(int peers,
              std::function<void(int, std::span<const unsigned char>)> write)
      : peers_(static_cast<std::size_t>(peers)),
        write_(std::move(write)),
        pool_(1) {}

  /// Drains every queue (or surfaces a captured write error).
  ~FrameSender() {
    try {
      flush();
    } catch (...) {
      // Destructor context: the error was already observable via send().
    }
  }

  void send(int dst, std::vector<unsigned char> frame) {
    bool schedule = false;
    {
      std::lock_guard lock(mutex_);
      Peer& peer = peers_[static_cast<std::size_t>(dst)];
      if (peer.error) std::rethrow_exception(peer.error);
      peer.queue.push_back(std::move(frame));
      if (!peer.pumping) {
        peer.pumping = true;
        schedule = true;
      }
    }
    if (schedule) {
      pool_.submit([this, dst] { pump(dst); });
    }
  }

  /// Blocks until every enqueued frame has been written or dropped with
  /// its failed peer; rethrows the first peer's write error.
  void flush() {
    std::unique_lock lock(mutex_);
    drained_.wait(lock, [this] {
      for (const Peer& p : peers_) {
        if (!p.queue.empty() || p.pumping) return false;
      }
      return true;
    });
    for (const Peer& p : peers_) {
      if (p.error) std::rethrow_exception(p.error);
    }
  }

 private:
  struct Peer {
    std::deque<std::vector<unsigned char>> queue;
    bool pumping = false;  ///< a flush task for this peer is scheduled
    std::exception_ptr error;  ///< first write failure; the queue is dead
  };

  void pump(int dst) {
    Peer& peer = peers_[static_cast<std::size_t>(dst)];
    for (;;) {
      std::vector<unsigned char> frame;
      {
        std::lock_guard lock(mutex_);
        if (peer.queue.empty()) {
          peer.pumping = false;
          drained_.notify_all();
          return;
        }
        frame = std::move(peer.queue.front());
        peer.queue.pop_front();
      }
      try {
        write_(dst, frame);
      } catch (...) {
        std::lock_guard lock(mutex_);
        peer.error = std::current_exception();
        peer.queue.clear();
        peer.pumping = false;
        drained_.notify_all();
        return;
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable drained_;
  std::vector<Peer> peers_;
  std::function<void(int, std::span<const unsigned char>)> write_;
  exec::ThreadPool pool_;  ///< last member: joins before queues die
};

}  // namespace spdkfac::comm::detail
