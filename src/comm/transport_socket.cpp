// Socket transport backend: process-per-rank over a full mesh of
// SOCK_STREAM Unix-domain sockets.  Multi-host-shaped: nothing below the
// factory assumes a shared filesystem beyond the endpoint paths, and the
// framing (wire.hpp) assumes only an ordered byte stream, so swapping the
// address family for TCP changes setup code only.
//
// Setup (accept/connect handshake):
//   1. every rank binds and listens at `<base_path>.r<rank>`;
//   2. rank r actively connects to every s < r — retrying while the peer's
//      listener is still appearing — and sends a handshake frame
//      (kHandshakeTag, src = r, empty payload);
//   3. rank r accepts size-1-r connections from the ranks above it and
//      identifies each by its handshake frame.
//   After the mesh is up the listener is closed and unlinked; each peer
//   pair shares exactly one socket.
//
// Data path: send() encodes one frame and enqueues it on the peer's send
// queue, pumped by a dedicated exec worker (FrameSender) — so
// send never blocks on a full kernel buffer, which keeps the collectives'
// neighbour exchanges deadlock-free.  recv_into(src) reads the peer's
// socket into a FrameParser, reassembling frames across short reads; a
// torn or corrupt stream (bad magic/version/length, unexpected src)
// throws instead of hanging.
//
// Failure detection (timeout armed — see comm/fault.hpp): the carrier wait
// polls the peer socket in heartbeat-interval slices; any bytes from the
// awaited peer (heartbeats included) reset the deadline.  The protocol on
// top — pings while blocked, notice gossip, the RankFailure — is
// Transport's.  A dead peer surfaces three ways: EOF / ECONNRESET
// (kPeerClosed — the kernel noticed the SIGKILL), deadline expiry
// (kTimeout), or a forwarded failure notice naming the root dead rank
// (kPeerNotice).  Once the awaited peer has sent a frame of the other
// class (a barrier signal while we wait for data, or the reverse), it has
// moved past the frame we wait for, so its pings stop resetting the
// deadline.  Without that, live ranks left waiting on each other in a
// cycle by a dropped message would keep every deadline alive forever.
//
// Teardown: the destructor flushes every send queue, then shuts down and
// closes the sockets.  Flushed bytes survive the close (kernel-buffered),
// so a rank that finishes early never strands a peer mid-collective.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "comm/transport.hpp"
#include "comm/wire.hpp"
#include "exec/thread_pool.hpp"

namespace spdkfac::comm {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("socket transport: " + what + ": " +
                           std::strerror(errno));
}

/// Owns one file descriptor until release()d — keeps the fds that are in
/// flight during the handshake (accepted / freshly dialed, not yet stored
/// in peer_fds_) from leaking when a later setup step throws.
class FdGuard {
 public:
  explicit FdGuard(int fd = -1) noexcept : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdGuard(FdGuard&& other) noexcept : fd_(other.release()) {}
  FdGuard& operator=(FdGuard&& other) noexcept {
    if (this != &other) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = other.release();
    }
    return *this;
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;

  int get() const noexcept { return fd_; }
  int release() noexcept { return std::exchange(fd_, -1); }

 private:
  int fd_;
};

sockaddr_un endpoint_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  validate_socket_path(path);  // throws with the path + sun_path limit
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

void write_all(int fd, const unsigned char* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not a SIGPIPE kill.
    const ssize_t w = ::send(fd, data + done, n - done, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    done += static_cast<std::size_t>(w);
  }
}

void read_exact(int fd, unsigned char* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::read(fd, data + done, n - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("read");
    }
    if (r == 0) {
      throw std::runtime_error("socket transport: peer closed mid-frame");
    }
    done += static_cast<std::size_t>(r);
  }
}

/// poll() one fd for `events`, retrying EINTR.  Returns true when ready,
/// false on timeout.
bool poll_fd(int fd, short events, double timeout_s) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  const int timeout_ms =
      timeout_s >= 0.0 ? static_cast<int>(timeout_s * 1e3) + 1 : -1;
  for (;;) {
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    return r > 0;
  }
}

/// A steady-clock instant kept in floating point, so any timeout fits.
using Deadline =
    std::chrono::time_point<std::chrono::steady_clock,
                            std::chrono::duration<double, std::nano>>;

Deadline deadline_after(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration<double>(seconds);
}

/// Per-peer send queues pumped on a dedicated exec worker — what makes
/// Transport::send non-blocking over the bounded kernel socket buffer.
/// send() enqueues an encoded frame and returns; a flush task per peer
/// drains that peer's queue FIFO through `write` (which may block on the
/// socket).  The single pump worker serializes writes across peers,
/// mirroring the AsyncCommEngine's one-pump discipline.
///
/// A write failure (peer died, socket torn) is captured per peer and
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

class SocketTransport final : public Transport {
 public:
  SocketTransport(const SocketEndpoint& ep, int rank)
      : rank_(rank),
        size_(ep.size),
        listen_path_(listener_path(ep.base_path, rank)),
        peer_fds_(static_cast<std::size_t>(ep.size), -1),
        parsers_(static_cast<std::size_t>(ep.size)),
        pending_data_(static_cast<std::size_t>(ep.size)),
        pending_barrier_(static_cast<std::size_t>(ep.size)) {
    try {
      connect_mesh(ep);
    } catch (...) {
      close_all();
      throw;
    }
    sender_ = std::make_unique<FrameSender>(
        size_, [this](int dst, std::span<const unsigned char> bytes) {
          timed_write(dst, bytes.data(), bytes.size());
        });
  }

  ~SocketTransport() override {
    sender_.reset();  // flush every queued frame before closing
    close_all();
  }

  TransportKind kind() const noexcept override {
    return TransportKind::kSocket;
  }
  int rank() const noexcept override { return rank_; }
  int size() const noexcept override { return size_; }

  void send(int dst, std::span<const double> payload, std::uint16_t tag,
            int plan_task, std::uint16_t codec) override {
    wire::FrameHeader header;
    header.tag = tag;
    header.src = rank_;
    header.plan_task = plan_task;
    header.elements = payload.size();
    header.codec = codec;
    if (!sender_) {
      // Only while the mesh is being built or torn down; heartbeat() and
      // failure notices swallow this, as they do any per-peer send error.
      throw std::logic_error("socket transport: no send queue");
    }
    sender_->send(dst, wire::encode_frame(header, payload));
  }

  void flush() override {
    if (sender_) sender_->flush();
  }

  bool recv_into(int src, std::span<double> out) override {
    const wire::Frame frame = next_frame_of(src, /*want_barrier=*/false);
    if (frame.payload.size() != out.size()) return false;
    std::copy(frame.payload.begin(), frame.payload.end(), out.begin());
    return true;
  }

  void barrier() override {
    // Dissemination barrier: in round k every rank signals (rank + 2^k) and
    // waits on (rank - 2^k); after ceil(log2 P) rounds every rank has
    // transitively heard from every other.  Frames are pulled through the
    // tag demultiplexer: after a lost or out-of-phase message the stream
    // can interleave barrier signals with data frames, and a barrier signal
    // consumed by a pending data recv (or vice versa) would turn one rank's
    // failure into a protocol-corruption crash on a healthy one.
    const int world = size_;
    try {
      for (int hop = 1; hop < world; hop <<= 1) {
        send((rank_ + hop) % world, {}, wire::kBarrierTag, -1, 0);
        next_frame_of((rank_ - hop + world) % world, /*want_barrier=*/true);
      }
    } catch (RankFailure& failure) {
      failure.set_context("barrier", failure.plan_task());
      throw;
    }
  }

 private:
  static std::string listener_path(const std::string& base, int rank) {
    return base + ".r" + std::to_string(rank);
  }

  /// Tag demultiplexer: returns `src`'s next barrier or data frame, as
  /// requested, stashing frames of the other class for their own consumer.
  /// In lockstep operation nothing is ever stashed (collectives keep the
  /// streams aligned); the queues only fill when a fault desynced a peer,
  /// and then they are what keeps a barrier signal from being misread as a
  /// short data message.  Control frames go to Transport::on_control_frame.
  wire::Frame next_frame_of(int src, bool want_barrier) {
    auto& mine = (want_barrier ? pending_barrier_ : pending_data_)[
        static_cast<std::size_t>(src)];
    if (!mine.empty()) {
      wire::Frame frame = std::move(mine.front());
      mine.pop_front();
      return frame;
    }
    const auto& other = (want_barrier ? pending_data_ : pending_barrier_)[
        static_cast<std::size_t>(src)];
    auto deadline = deadline_after(timeout_s());
    for (;;) {
      // A stashed frame of the other class shows `src` has moved past the
      // frame we await, so its pings no longer extend the deadline.
      wire::Frame frame = next_frame(src, deadline, /*extend=*/other.empty());
      if (frame.header.src != src) {
        throw std::runtime_error("socket transport: frame src mismatch");
      }
      if (is_control_frame(frame.header.tag)) {
        on_control_frame(frame.header.tag, frame.payload);
        continue;
      }
      const bool is_barrier = frame.header.tag == wire::kBarrierTag;
      if (is_barrier == want_barrier) return frame;
      (is_barrier ? pending_barrier_ : pending_data_)[
          static_cast<std::size_t>(src)].push_back(std::move(frame));
    }
  }

  /// Reassembles the next complete frame from `src`, honoring the armed
  /// `deadline`.  With `extend`, any bytes from the peer reset the deadline
  /// (progress == liveness); EOF and expiry go to Transport::fail_recv.
  wire::Frame next_frame(int src, Deadline& deadline, bool extend) {
    wire::FrameParser& parser = parsers_[static_cast<std::size_t>(src)];
    const int fd = peer_fds_[static_cast<std::size_t>(src)];
    const double timeout = timeout_s();
    const bool timed = timeout > 0.0;
    while (!parser.has_frame()) {
      if (timed) {
        if (!poll_fd(fd, POLLIN, heartbeat_interval_s())) {
          heartbeat();
          if (std::chrono::steady_clock::now() >= deadline) {
            fail_recv(src, FailureCause::kTimeout);
          }
          continue;
        }
      }
      unsigned char chunk[1 << 16];
      const ssize_t r = ::read(fd, chunk, sizeof(chunk));
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNRESET) fail_recv(src, FailureCause::kPeerClosed);
        throw_errno("read");
      }
      if (r == 0) fail_recv(src, FailureCause::kPeerClosed);
      if (!parser.feed({chunk, static_cast<std::size_t>(r)})) {
        throw std::runtime_error(
            std::string("socket transport: corrupt stream from peer ") +
            std::to_string(src) + " (" + wire::to_string(parser.error()) +
            ")");
      }
      if (extend) deadline = deadline_after(timeout);
    }
    return parser.pop_frame();
  }

  /// FrameSender write hook: delivers one frame to `dst`, bounding each
  /// stall at the armed deadline (a peer that stops draining its socket is
  /// as dead as one that stopped sending).
  void timed_write(int dst, const unsigned char* data, std::size_t n) {
    const int fd = peer_fds_[static_cast<std::size_t>(dst)];
    const double timeout = timeout_s();
    if (timeout <= 0.0) {
      write_all(fd, data, n);
      return;
    }
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(timeout);
    std::size_t done = 0;
    while (done < n) {
      if (!poll_fd(fd, POLLOUT, heartbeat_interval_s())) {
        if (std::chrono::steady_clock::now() >= deadline) {
          throw RankFailure(dst, "send", FailureCause::kTimeout, rank_,
                            timeout);
        }
        continue;
      }
      const ssize_t w = ::send(fd, data + done, n - done, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EPIPE || errno == ECONNRESET) {
          throw RankFailure(dst, "send", FailureCause::kPeerClosed, rank_,
                            timeout);
        }
        throw_errno("send");
      }
      done += static_cast<std::size_t>(w);
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration<double>(timeout);
    }
  }

  void connect_mesh(const SocketEndpoint& ep) {
    // 1. Listener first, so any peer's connect can queue in the backlog
    //    even while this rank is still dialing lower ranks.
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    ::unlink(listen_path_.c_str());
    sockaddr_un addr = endpoint_address(listen_path_);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw_errno("bind " + listen_path_);
    }
    if (::listen(listen_fd_, size_) != 0) throw_errno("listen");

    // 2. Dial every lower rank (their listeners may still be appearing).
    for (int peer = 0; peer < rank_; ++peer) {
      peer_fds_[static_cast<std::size_t>(peer)] = dial(ep, peer).release();
    }

    // 3. Accept the higher ranks, identified by their handshake frame.
    //    The guard owns each accepted fd until it is identified and
    //    stored, so a bad handshake can't leak it.
    for (int pending = size_ - 1 - rank_; pending > 0; --pending) {
      FdGuard conn;
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd >= 0) {
          conn = FdGuard(fd);
          break;
        }
        if (errno == EINTR) continue;  // signal-interrupted, not an error
        throw_errno("accept");
      }
      const wire::FrameHeader hello = read_handshake(conn.get());
      if (hello.src <= rank_ || hello.src >= size_ ||
          peer_fds_[static_cast<std::size_t>(hello.src)] != -1) {
        throw std::runtime_error("socket transport: bad handshake rank");
      }
      peer_fds_[static_cast<std::size_t>(hello.src)] = conn.release();
    }

    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(listen_path_.c_str());
  }

  FdGuard dial(const SocketEndpoint& ep, int peer) {
    const std::string path = listener_path(ep.base_path, peer);
    const sockaddr_un addr = endpoint_address(path);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (;;) {
      FdGuard fd(::socket(AF_UNIX, SOCK_STREAM, 0));
      if (fd.get() < 0) throw_errno("socket");
      if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        // Identify ourselves; the peer's accept loop reads this first.
        // The guard still owns the fd, so a failed write can't leak it.
        wire::FrameHeader hello;
        hello.tag = wire::kHandshakeTag;
        hello.src = rank_;
        const auto frame = wire::encode_frame(hello, {});
        write_all(fd.get(), frame.data(), frame.size());
        return fd;
      }
      const int err = errno;
      fd = FdGuard();
      if ((err != ENOENT && err != ECONNREFUSED) ||
          std::chrono::steady_clock::now() > deadline) {
        errno = err;
        throw_errno("connect " + path);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  wire::FrameHeader read_handshake(int fd) {
    unsigned char raw[wire::kHeaderBytes];
    read_exact(fd, raw, wire::kHeaderBytes);
    wire::FrameHeader header;
    const wire::DecodeStatus status = wire::decode_header(raw, header);
    if (status != wire::DecodeStatus::kOk ||
        header.tag != wire::kHandshakeTag || header.elements != 0) {
      throw std::runtime_error("socket transport: bad handshake frame");
    }
    return header;
  }

  void close_all() {
    for (int& fd : peer_fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      ::unlink(listen_path_.c_str());
    }
  }

  int rank_;
  int size_;
  std::string listen_path_;
  int listen_fd_ = -1;
  std::vector<int> peer_fds_;           // one socket per peer, -1 = self
  std::vector<wire::FrameParser> parsers_;  // per-peer reassembly
  // Per-peer stashes for frames that arrived while the other class was
  // awaited (see next_frame_of).  Empty in lockstep operation.
  std::vector<std::deque<wire::Frame>> pending_data_, pending_barrier_;
  std::unique_ptr<FrameSender> sender_;
};

}  // namespace

std::unique_ptr<Transport> make_socket_transport(const SocketEndpoint& ep,
                                                 int rank) {
  if (ep.size <= 0) {
    throw std::invalid_argument("socket transport: size must be positive");
  }
  if (rank < 0 || rank >= ep.size) {
    throw std::invalid_argument("socket transport: bad rank");
  }
  return std::make_unique<SocketTransport>(SocketEndpoint{ep.base_path,
                                                          ep.size},
                                           rank);
}

}  // namespace spdkfac::comm
