// Pluggable rank-to-rank transport — the seam that takes the cluster
// out-of-process.
//
// Everything above this interface (Communicator's collectives, the
// AsyncCommEngine, the optimizer) speaks ordered, reliable point-to-point
// messages plus a barrier; everything below it decides what a "rank" is and
// what the wire looks like.  Two backends implement the contract:
//
//   kInProcess     ranks are threads in one address space; each directed
//                  (src, dst) pair owns an unbounded mutex/condvar mailbox
//                  (comm/channel.hpp) and the barrier is a condvar barrier.
//                  The test default — fastest, fully TSan-visible.
//   kSocket        ranks are processes connected by a full mesh of
//                  SOCK_STREAM Unix-domain sockets (multi-host-shaped: the
//                  framing assumes nothing but a byte stream).  Frames are
//                  the wire.hpp length-prefixed protocol; setup is an
//                  accept/connect handshake (lower rank listens, higher
//                  rank connects, both verify a handshake frame).
//
// The send contract mirrors the in-process Channel: send() never blocks on
// the receiver (unbounded local buffering; the socket backend enqueues
// encoded frames per peer and pumps them from a dedicated exec worker),
// which is what makes the collectives' neighbour-exchange patterns
// deadlock-free on a bounded wire.  recv_into() blocks; messages from one
// sender arrive in send order.  Both backends must be observationally
// identical: the cross-backend conformance/determinism suites hold them to
// bitwise-identical collective results.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace spdkfac::comm {

enum class FailureCause;  // comm/fault.hpp

/// Explicit values: kSocket keeps the 2 it has always had, so anything
/// that prints the raw enum (gtest parameter dumps, logs) stays comparable
/// across versions.
enum class TransportKind {
  kInProcess = 0,  ///< threads + channel mailboxes (default)
  kSocket = 2,     ///< process-per-rank, Unix-domain socket mesh
};

const char* to_string(TransportKind kind) noexcept;

/// Parses "inproc" / "socket"; throws std::invalid_argument on
/// anything else (used by example/bench CLIs).
TransportKind transport_from_string(const std::string& name);

/// Ordered reliable point-to-point messaging + barrier between P ranks.
/// One instance per rank; all methods are called from that rank's threads.
/// Concurrent sends are safe; recv_into(src) must not race another receive
/// of the same src (the Communicator/engine discipline already serializes
/// all collective traffic per rank).
///
/// A backend supplies only its carrier: send(), recv_into() and barrier().
/// The failure-detection protocol on top of it — heartbeats, failure
/// notices, and what a receive does with either — lives here, once.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const noexcept = 0;
  virtual int rank() const noexcept = 0;
  virtual int size() const noexcept = 0;

  /// Copies `payload` toward dst's mailbox and returns without waiting for
  /// delivery.  `tag`/`plan_task`/`codec` ride in the frame header (protocol
  /// metadata; delivery order is FIFO per (src, dst) pair regardless).
  /// codec != 0 marks a comm::Codec-encoded payload — the backends ship it
  /// verbatim, so compressed bytes genuinely cross the wire.
  virtual void send(int dst, std::span<const double> payload,
                    std::uint16_t tag = 0, int plan_task = -1,
                    std::uint16_t codec = 0) = 0;

  /// Blocking receive of the next message from `src` into `out`; returns
  /// false (the message is consumed and discarded) when its length !=
  /// out.size().
  virtual bool recv_into(int src, std::span<double> out) = 0;

  /// Blocks until all ranks arrive.
  virtual void barrier() = 0;

  /// Blocks until every frame send() has accepted is on the carrier, so it
  /// outlives this process; rethrows a write error captured since.  A no-op
  /// where send() already delivers before it returns.
  virtual void flush() {}

  // -------------------------------------------------------------------------
  // Failure detection (see comm/fault.hpp).  With a timeout armed, every
  // blocking primitive becomes deadline-aware: a blocked call that sees no
  // progress from the awaited rank for `seconds` throws a RankFailure
  // naming it, after best-effort broadcasting a failure notice so every
  // other survivor learns the *root* dead rank instead of blaming the
  // stalled-but-alive neighbour it happens to be waiting on.  While
  // blocked, a rank emits heartbeat frames to all peers every quarter
  // deadline, so alive-but-waiting ranks are never declared dead.
  // -------------------------------------------------------------------------

  /// Arms (seconds > 0) or disarms (<= 0, the default) the failure
  /// deadline.  Disarmed, every primitive blocks forever — the exact
  /// pre-fault-tolerance behavior.  Set before concurrent use begins.
  virtual void set_timeout(double seconds) noexcept { timeout_s_ = seconds; }
  virtual double timeout_s() const noexcept { return timeout_s_; }

  /// Best-effort liveness ping (an empty kHeartbeatTag frame) to every
  /// peer, rate-limited to one round per heartbeat interval; no-op when the
  /// deadline is disarmed.  The async engine calls this between operations
  /// so a rank busy executing a long collective queue still reads as alive.
  virtual void heartbeat();

  /// Heartbeat *emission rounds* this rank has actually sent (post
  /// rate-limiting; each round pings all peers).  0 while the deadline is
  /// disarmed — a control-plane observability counter, never consulted by
  /// the failure detection itself.
  virtual std::size_t heartbeats_sent() const noexcept {
    return heartbeats_sent_.load(std::memory_order_relaxed);
  }

 protected:
  /// Deadline slice between heartbeat emissions while blocked.
  double heartbeat_interval_s() const noexcept {
    const double quarter = timeout_s_ / 4.0;
    return quarter < 0.001 ? 0.001 : quarter;
  }

  /// True for the protocol's own frames (heartbeats, failure notices),
  /// which a receive never delivers: the backend's frame loop hands them to
  /// on_control_frame() and keeps waiting.
  static bool is_control_frame(std::uint16_t tag) noexcept;

  /// Receipt of a control frame from a peer.  A heartbeat is dropped (its
  /// arrival already counted as progress).  A failure notice is re-broadcast
  /// to the other peers (gossip: a peer blocked on *this* rank learns the
  /// root dead rank instead of later blaming us when our heartbeats stop)
  /// and thrown as a kPeerNotice RankFailure naming that rank.
  void on_control_frame(std::uint16_t tag, std::span<const double> payload);

  /// A receive from `src` gave up on it (silent past the deadline, or its
  /// carrier closed): notify the other peers, then throw the RankFailure.
  [[noreturn]] void fail_recv(int src, FailureCause cause);

 private:
  /// Best-effort failure notice (a kFailureTag frame carrying `dead`) to
  /// every peer except `dead`.
  void notify_failure(int dead);

  double timeout_s_ = 0.0;
  std::atomic<std::int64_t> last_heartbeat_ns_{0};
  std::atomic<std::size_t> heartbeats_sent_{0};
};

// ---------------------------------------------------------------------------
// Backend factories.  The in-process group holds the channel matrix shared
// by all ranks of one cluster and is created by the launcher before it
// spawns the rank threads; socket ranks share only a rendezvous path.
// ---------------------------------------------------------------------------

class InProcessGroup;
std::shared_ptr<InProcessGroup> make_in_process_group(int size);
std::unique_ptr<Transport> make_in_process_transport(
    std::shared_ptr<InProcessGroup> group, int rank);

struct SocketEndpoint {
  /// Listener paths are `<base_path>.r<rank>`; keep the base short (Unix
  /// socket paths cap at ~107 bytes).
  std::string base_path;
  int size = 0;
};

/// Longest Unix-domain socket path the platform can bind
/// (sizeof(sockaddr_un::sun_path) - 1; 107 bytes on Linux).
std::size_t max_socket_path_bytes() noexcept;

/// Throws std::invalid_argument when `path` is empty or too long to fit
/// sockaddr_un::sun_path — the error names the path and both lengths so a
/// too-deep $TMPDIR is diagnosable instead of silently truncating.
void validate_socket_path(const std::string& path);

/// Scratch directory for rendezvous/ctl sockets: $TMPDIR when set and
/// non-empty (trailing slashes stripped), else "/tmp".
std::string default_tmp_dir();

/// Connects the full mesh (blocking, with connect retries while peers are
/// still starting); throws std::runtime_error when a peer cannot be
/// reached or fails the handshake.
std::unique_ptr<Transport> make_socket_transport(const SocketEndpoint& ep,
                                                 int rank);

}  // namespace spdkfac::comm
