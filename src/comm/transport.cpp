#include "comm/transport.hpp"

#include <sys/un.h>

#include <chrono>
#include <cstdlib>
#include <stdexcept>

#include "comm/fault.hpp"
#include "comm/wire.hpp"

namespace spdkfac::comm {

std::size_t max_socket_path_bytes() noexcept {
  return sizeof(sockaddr_un{}.sun_path) - 1;
}

void validate_socket_path(const std::string& path) {
  if (path.empty()) {
    throw std::invalid_argument("unix socket path is empty");
  }
  if (path.size() > max_socket_path_bytes()) {
    throw std::invalid_argument(
        "unix socket path exceeds sun_path capacity (" +
        std::to_string(path.size()) + " > " +
        std::to_string(max_socket_path_bytes()) +
        " bytes) — binding would silently truncate it: " + path +
        " (set TMPDIR to a shorter directory)");
  }
}

std::string default_tmp_dir() {
  const char* env = std::getenv("TMPDIR");
  std::string dir = (env != nullptr && *env != '\0') ? env : "/tmp";
  while (dir.size() > 1 && dir.back() == '/') dir.pop_back();
  return dir;
}

const char* to_string(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::kInProcess:
      return "inproc";
    case TransportKind::kSocket:
      return "socket";
  }
  return "?";
}

TransportKind transport_from_string(const std::string& name) {
  if (name == "inproc") return TransportKind::kInProcess;
  if (name == "socket") return TransportKind::kSocket;
  throw std::invalid_argument("unknown transport '" + name +
                              "' (expected inproc, socket)");
}

void Transport::heartbeat() {
  if (timeout_s() <= 0.0) return;
  const auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  const auto interval_ns =
      static_cast<std::int64_t>(heartbeat_interval_s() * 1e9);
  std::int64_t last = last_heartbeat_ns_.load(std::memory_order_relaxed);
  if (now_ns - last < interval_ns ||
      !last_heartbeat_ns_.compare_exchange_strong(last, now_ns,
                                                  std::memory_order_relaxed)) {
    return;
  }
  heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == rank()) continue;
    try {
      send(peer, {}, wire::kHeartbeatTag);
    } catch (...) {
      // Liveness pings are best-effort; a poisoned peer queue must not
      // break the detection path that is trying to report it.
    }
  }
}

bool Transport::is_control_frame(std::uint16_t tag) noexcept {
  return tag == wire::kHeartbeatTag || tag == wire::kFailureTag;
}

void Transport::on_control_frame(std::uint16_t tag,
                                 std::span<const double> payload) {
  if (tag != wire::kFailureTag) return;
  const int dead = payload.empty() ? -1 : static_cast<int>(payload.front());
  notify_failure(dead);
  throw RankFailure(dead, "recv", FailureCause::kPeerNotice, rank(),
                    timeout_s());
}

void Transport::fail_recv(int src, FailureCause cause) {
  notify_failure(src);
  throw RankFailure(src, "recv", cause, rank(), timeout_s());
}

void Transport::notify_failure(int dead) {
  const double who[] = {static_cast<double>(dead)};
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == rank() || peer == dead) continue;
    try {
      send(peer, who, wire::kFailureTag);
    } catch (...) {
      // Best-effort: the local RankFailure is thrown regardless.
    }
  }
}

}  // namespace spdkfac::comm
