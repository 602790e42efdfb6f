// Shared-memory transport backend: process-per-rank on one host.
//
// The launcher maps one anonymous MAP_SHARED arena *before* forking the
// worker processes, so every rank inherits the same physical pages.  The
// arena holds one fixed-capacity SPSC byte ring per directed (src, dst)
// pair — src's processes produce, dst's consume — plus a sense-reversing
// barrier.  Messages are wire.hpp frames streamed through the ring; a
// message larger than the ring simply flows through it in chunks (the
// producer blocks on ring-full, the consumer on ring-empty, both on futex
// doorbells, FUTEX_WAIT/WAKE on the shared 32-bit ring cursors).
//
// Ring cursors are free-running uint32 byte counts (capacity divides 2^32
// because it is a power of two, so `tail - head` stays exact across
// wraparound).  send() never blocks on the consumer: frames are queued
// locally and pumped into the ring by a dedicated exec worker
// (detail::FrameSender), preserving the unbounded-send contract the
// collectives' neighbour exchanges rely on.
//
// Failure detection (timeout armed — see comm/fault.hpp): the carrier wait
// is a timed futex wait in heartbeat-interval slices, and any ring progress
// (heartbeat frames included) resets the deadline.  A blocked reader pings
// all peers each slice; the pump worker never does, since it is the thread
// those pings would drain through.  The protocol on top — pings, notice
// gossip, the RankFailure on expiry — is Transport's.  The barrier stamps
// each rank's arrival generation in the arena, so every timed-out waiter
// independently names the same lowest non-arrived rank — no notice traffic
// needed.
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <linux/futex.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "comm/transport.hpp"
#include "comm/transport_detail.hpp"
#include "comm/wire.hpp"

namespace spdkfac::comm {

namespace {

void futex_wait(std::atomic<std::uint32_t>* addr, std::uint32_t expected) {
  // Spurious returns (EINTR, EAGAIN on a stale expected value) are fine:
  // every caller re-checks its condition in a loop.
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), FUTEX_WAIT,
          expected, nullptr, nullptr, 0);
}

/// Timed FUTEX_WAIT (relative timeout); same spurious-return contract.
void futex_wait_for(std::atomic<std::uint32_t>* addr, std::uint32_t expected,
                    double timeout_s) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) *
                                 1e9);
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), FUTEX_WAIT,
          expected, &ts, nullptr, 0);
}

void futex_wake_all(std::atomic<std::uint32_t>* addr) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), FUTEX_WAKE,
          INT_MAX, nullptr, nullptr, 0);
}

/// SPSC ring cursors, one cache line each so producer and consumer never
/// false-share.  head = bytes consumed, tail = bytes produced; both wrap
/// freely (capacity divides 2^32).
struct RingState {
  alignas(64) std::atomic<std::uint32_t> head;
  alignas(64) std::atomic<std::uint32_t> tail;
};

struct BarrierState {
  std::atomic<std::uint32_t> arrived;
  std::atomic<std::uint32_t> generation;
};

struct alignas(64) ArenaControl {
  int size;
  std::uint32_t ring_bytes;
  BarrierState barrier;
};

constexpr std::size_t kRingStateBytes = sizeof(RingState);
/// One cache line per rank for the barrier arrival stamp (no false sharing
/// between arriving ranks).
constexpr std::size_t kStampBytes = 64;

std::size_t slot_bytes(std::size_t ring_bytes) {
  return kRingStateBytes + ring_bytes;
}

/// Deadline policy for a blocking ring operation.  `timeout_s <= 0` waits
/// forever (the pre-fault-tolerance behavior); otherwise the wait runs in
/// `slice_s` futex slices, invoking `on_stall` (may be null) each slice,
/// and gives up `timeout_s` after the last observed progress.
struct RingDeadline {
  double timeout_s = 0.0;
  double slice_s = 0.0;
  const std::function<void()>* on_stall = nullptr;
};

}  // namespace

/// The mmap'd arena (see file comment).  Created once by the launcher;
/// worker processes inherit the mapping across fork and address it through
/// their own copy of this handle.
class ShmArena {
 public:
  ShmArena(int size, std::size_t ring_bytes)
      : size_(size), ring_bytes_(ring_bytes) {
    total_ = sizeof(ArenaControl) +
             static_cast<std::size_t>(size) * kStampBytes +
             static_cast<std::size_t>(size) * size * slot_bytes(ring_bytes);
    void* mem = ::mmap(nullptr, total_, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      throw std::runtime_error("ShmArena: mmap failed");
    }
    base_ = static_cast<unsigned char*>(mem);
    auto* control = new (base_) ArenaControl;
    control->size = size;
    control->ring_bytes = static_cast<std::uint32_t>(ring_bytes);
    control->barrier.arrived.store(0, std::memory_order_relaxed);
    control->barrier.generation.store(0, std::memory_order_relaxed);
    for (int r = 0; r < size; ++r) {
      auto* stamp = new (stamp_slot(r)) std::atomic<std::uint32_t>;
      stamp->store(0, std::memory_order_relaxed);
    }
    for (int src = 0; src < size; ++src) {
      for (int dst = 0; dst < size; ++dst) {
        auto* ring = new (slot(src, dst)) RingState;
        ring->head.store(0, std::memory_order_relaxed);
        ring->tail.store(0, std::memory_order_relaxed);
      }
    }
  }

  ~ShmArena() { ::munmap(base_, total_); }

  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  int size() const noexcept { return size_; }
  std::uint32_t ring_bytes() const noexcept {
    return static_cast<std::uint32_t>(ring_bytes_);
  }

  RingState& ring(int src, int dst) {
    return *reinterpret_cast<RingState*>(slot(src, dst));
  }
  unsigned char* ring_data(int src, int dst) {
    return slot(src, dst) + kRingStateBytes;
  }
  BarrierState& barrier() {
    return reinterpret_cast<ArenaControl*>(base_)->barrier;
  }
  /// Per-rank barrier arrival stamp: generation + 1, stored on entry.
  std::atomic<std::uint32_t>& barrier_stamp(int rank) {
    return *reinterpret_cast<std::atomic<std::uint32_t>*>(stamp_slot(rank));
  }

 private:
  unsigned char* stamp_slot(int rank) {
    return base_ + sizeof(ArenaControl) +
           static_cast<std::size_t>(rank) * kStampBytes;
  }

  unsigned char* slot(int src, int dst) {
    return base_ + sizeof(ArenaControl) +
           static_cast<std::size_t>(size_) * kStampBytes +
           (static_cast<std::size_t>(src) * size_ + dst) *
               slot_bytes(ring_bytes_);
  }

  int size_;
  std::size_t ring_bytes_;
  std::size_t total_ = 0;
  unsigned char* base_ = nullptr;
};

namespace {

/// Streams `n` bytes into the (src -> dst) ring, blocking on ring-full.
/// Returns false when the deadline expires with the consumer not draining.
bool ring_write(RingState& st, unsigned char* data, std::uint32_t cap,
                const unsigned char* src, std::size_t n,
                const RingDeadline& dl) {
  const bool timed = dl.timeout_s > 0.0;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(dl.timeout_s);
  std::size_t done = 0;
  while (done < n) {
    const std::uint32_t tail = st.tail.load(std::memory_order_relaxed);
    const std::uint32_t head = st.head.load(std::memory_order_acquire);
    const std::uint32_t free_bytes = cap - (tail - head);
    if (free_bytes == 0) {
      if (!timed) {
        futex_wait(&st.head, head);
        continue;
      }
      futex_wait_for(&st.head, head, dl.slice_s);
      if (st.head.load(std::memory_order_acquire) != head) continue;
      if (dl.on_stall && *dl.on_stall) (*dl.on_stall)();
      if (std::chrono::steady_clock::now() >= deadline) return false;
      continue;
    }
    const std::uint32_t chunk = static_cast<std::uint32_t>(
        std::min<std::size_t>(n - done, free_bytes));
    const std::uint32_t pos = tail & (cap - 1);
    const std::uint32_t first = std::min(chunk, cap - pos);
    std::memcpy(data + pos, src + done, first);
    std::memcpy(data, src + done + first, chunk - first);
    st.tail.store(tail + chunk, std::memory_order_release);
    futex_wake_all(&st.tail);
    done += chunk;
    if (timed) {
      // Progress resets the deadline: a large frame chunking through a
      // small ring is flow, not failure.
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration<double>(dl.timeout_s);
    }
  }
  return true;
}

/// Streams `n` bytes out of the ring into dst, blocking on ring-empty.
/// Returns false when the deadline expires with the producer silent.
bool ring_read(RingState& st, const unsigned char* data, std::uint32_t cap,
               unsigned char* dst, std::size_t n, const RingDeadline& dl) {
  const bool timed = dl.timeout_s > 0.0;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(dl.timeout_s);
  std::size_t done = 0;
  while (done < n) {
    const std::uint32_t head = st.head.load(std::memory_order_relaxed);
    const std::uint32_t tail = st.tail.load(std::memory_order_acquire);
    const std::uint32_t avail = tail - head;
    if (avail == 0) {
      if (!timed) {
        futex_wait(&st.tail, tail);
        continue;
      }
      futex_wait_for(&st.tail, tail, dl.slice_s);
      if (st.tail.load(std::memory_order_acquire) != tail) continue;
      if (dl.on_stall && *dl.on_stall) (*dl.on_stall)();
      if (std::chrono::steady_clock::now() >= deadline) return false;
      continue;
    }
    const std::uint32_t chunk =
        static_cast<std::uint32_t>(std::min<std::size_t>(n - done, avail));
    const std::uint32_t pos = head & (cap - 1);
    const std::uint32_t first = std::min(chunk, cap - pos);
    std::memcpy(dst + done, data + pos, first);
    std::memcpy(dst + done + first, data, chunk - first);
    st.head.store(head + chunk, std::memory_order_release);
    futex_wake_all(&st.head);
    done += chunk;
    if (timed) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration<double>(dl.timeout_s);
    }
  }
  return true;
}

class ShmTransport final : public Transport {
 public:
  ShmTransport(std::shared_ptr<ShmArena> arena, int rank)
      : arena_(std::move(arena)),
        rank_(rank),
        stall_ping_([this] { heartbeat(); }),
        sender_(arena_->size(),
                [this](int dst, std::span<const unsigned char> bytes) {
                  // No stall ping here: this runs on the pump worker, which
                  // is the thread heartbeats would need to drain through.
                  const RingDeadline dl{timeout_s(), heartbeat_interval_s(),
                                        nullptr};
                  if (!ring_write(arena_->ring(rank_, dst),
                                  arena_->ring_data(rank_, dst),
                                  arena_->ring_bytes(), bytes.data(),
                                  bytes.size(), dl)) {
                    throw RankFailure(dst, "send", FailureCause::kTimeout,
                                      rank_, timeout_s());
                  }
                }) {}

  TransportKind kind() const noexcept override {
    return TransportKind::kSharedMemory;
  }
  int rank() const noexcept override { return rank_; }
  int size() const noexcept override { return arena_->size(); }

  void send(int dst, std::span<const double> payload, std::uint16_t tag,
            int plan_task, std::uint16_t codec) override {
    wire::FrameHeader header;
    header.tag = tag;
    header.src = rank_;
    header.plan_task = plan_task;
    header.elements = payload.size();
    header.codec = codec;
    sender_.send(dst, wire::encode_frame(header, payload));
  }

  bool recv_into(int src, std::span<double> out) override {
    const wire::FrameHeader header = read_header(src);
    if (header.elements != out.size()) {
      // Consume and discard the mismatched message, like Channel::recv_into.
      std::vector<double> scratch(static_cast<std::size_t>(header.elements));
      read_payload(src, scratch);
      return false;
    }
    read_payload(src, out);
    return true;
  }

  void barrier() override {
    BarrierState& b = arena_->barrier();
    const auto parties = static_cast<std::uint32_t>(arena_->size());
    const std::uint32_t gen = b.generation.load(std::memory_order_acquire);
    arena_->barrier_stamp(rank_).store(gen + 1, std::memory_order_release);
    if (b.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == parties) {
      b.arrived.store(0, std::memory_order_relaxed);
      b.generation.store(gen + 1, std::memory_order_release);
      futex_wake_all(&b.generation);
      return;
    }
    const double timeout = timeout_s();
    if (timeout <= 0.0) {
      while (b.generation.load(std::memory_order_acquire) == gen) {
        futex_wait(&b.generation, gen);
      }
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout);
    while (b.generation.load(std::memory_order_acquire) == gen) {
      futex_wait_for(&b.generation, gen, heartbeat_interval_s());
      if (b.generation.load(std::memory_order_acquire) != gen) break;
      if (std::chrono::steady_clock::now() < deadline) continue;
      // Every timed-out waiter reads the same stamps, so all survivors
      // name the same (lowest) missing rank, with no notice traffic.
      for (int r = 0; r < arena_->size(); ++r) {
        if (arena_->barrier_stamp(r).load(std::memory_order_acquire) !=
            gen + 1) {
          throw RankFailure(r, "barrier", FailureCause::kTimeout, rank_,
                            timeout);
        }
      }
      // All stamped but the generation not yet advanced: the last arriver
      // is mid-publish — keep waiting, completion is imminent.
    }
  }

 private:
  RingDeadline deadline() const noexcept {
    return RingDeadline{timeout_s(), heartbeat_interval_s(), &stall_ping_};
  }

  /// Next data-bearing frame header from `src`: control frames go to
  /// Transport::on_control_frame with their payload.
  wire::FrameHeader read_header(int src) {
    for (;;) {
      unsigned char raw[wire::kHeaderBytes];
      if (!ring_read(arena_->ring(src, rank_), arena_->ring_data(src, rank_),
                     arena_->ring_bytes(), raw, wire::kHeaderBytes,
                     deadline())) {
        fail_recv(src, FailureCause::kTimeout);
      }
      wire::FrameHeader header;
      const wire::DecodeStatus status = wire::decode_header(raw, header);
      if (status != wire::DecodeStatus::kOk) {
        throw std::runtime_error(
            std::string("shm transport: corrupt frame (") +
            wire::to_string(status) + ")");
      }
      if (header.src != src) {
        throw std::runtime_error("shm transport: frame src mismatch");
      }
      if (!is_control_frame(header.tag)) return header;
      std::vector<double> body(static_cast<std::size_t>(header.elements));
      read_payload(src, body);
      on_control_frame(header.tag, body);
    }
  }

  void read_payload(int src, std::span<double> out) {
    if (out.empty()) return;
    if (!ring_read(arena_->ring(src, rank_), arena_->ring_data(src, rank_),
                   arena_->ring_bytes(),
                   reinterpret_cast<unsigned char*>(out.data()),
                   out.size_bytes(), deadline())) {
      fail_recv(src, FailureCause::kTimeout);
    }
  }

  std::shared_ptr<ShmArena> arena_;
  int rank_;
  std::function<void()> stall_ping_;
  detail::FrameSender sender_;  ///< last member: flushes before arena_ dies
};

}  // namespace

std::shared_ptr<ShmArena> make_shm_arena(int size, std::size_t ring_bytes) {
  if (size <= 0) {
    throw std::invalid_argument("shm arena: size must be positive");
  }
  if (ring_bytes < 1024 || (ring_bytes & (ring_bytes - 1)) != 0 ||
      ring_bytes > (std::size_t{1} << 31)) {
    throw std::invalid_argument(
        "shm arena: ring_bytes must be a power of two in [1024, 2^31]");
  }
  return std::make_shared<ShmArena>(size, ring_bytes);
}

std::unique_ptr<Transport> make_shm_transport(std::shared_ptr<ShmArena> arena,
                                              int rank) {
  if (rank < 0 || rank >= arena->size()) {
    throw std::invalid_argument("shm transport: bad rank");
  }
  return std::make_unique<ShmTransport>(std::move(arena), rank);
}

}  // namespace spdkfac::comm
