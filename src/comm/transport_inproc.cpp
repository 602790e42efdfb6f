// In-process transport backend: ranks are threads of one process, messages
// move through the Channel mailboxes (comm/channel.hpp) exactly as the
// pre-transport cluster did.  This is the test default and the only
// backend ThreadSanitizer can see end-to-end.
//
// Failure detection (timeout armed — see comm/fault.hpp): the carrier wait
// is Channel::recv_for in heartbeat-interval slices, and any frame from the
// awaited rank (heartbeats included) resets the deadline.  The protocol on
// top — pings while blocked, notice gossip, the RankFailure on expiry — is
// Transport's.  The barrier names the lowest non-arrived rank via the
// Barrier's arrival stamps.
#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "comm/channel.hpp"
#include "comm/fault.hpp"
#include "comm/transport.hpp"

namespace spdkfac::comm {

/// State shared by all ranks of one in-process cluster: the directed
/// channel matrix and the condvar barrier.  Owned jointly by the per-rank
/// transports (shared_ptr), so a group outlives every worker using it.
class InProcessGroup {
 public:
  explicit InProcessGroup(int size)
      : size_(size), barrier_(static_cast<std::size_t>(size)) {
    channels_.resize(static_cast<std::size_t>(size) * size);
    for (auto& ch : channels_) ch = std::make_unique<Channel>();
  }

  int size() const noexcept { return size_; }

  Channel& channel(int src, int dst) {
    return *channels_[static_cast<std::size_t>(src) * size_ + dst];
  }

  Barrier& barrier() noexcept { return barrier_; }

 private:
  int size_;
  Barrier barrier_;
  std::vector<std::unique_ptr<Channel>> channels_;  // [src * size + dst]
};

namespace {

class InProcessTransport final : public Transport {
 public:
  InProcessTransport(std::shared_ptr<InProcessGroup> group, int rank)
      : group_(std::move(group)), rank_(rank) {}

  TransportKind kind() const noexcept override {
    return TransportKind::kInProcess;
  }
  int rank() const noexcept override { return rank_; }
  int size() const noexcept override { return group_->size(); }

  void send(int dst, std::span<const double> payload, std::uint16_t tag,
            int /*plan_task*/, std::uint16_t /*codec*/) override {
    group_->channel(rank_, dst).send(payload, tag);
  }

  bool recv_into(int src, std::span<double> out) override {
    Channel& ch = group_->channel(src, rank_);
    const double timeout = timeout_s();
    const auto clock_now = [] { return std::chrono::steady_clock::now(); };
    auto deadline = clock_now() + std::chrono::duration<double>(timeout);
    for (;;) {
      std::optional<Channel::Message> msg =
          timeout > 0.0 ? ch.recv_for(heartbeat_interval_s()) : ch.recv();
      if (!msg) {
        heartbeat();
        if (clock_now() >= deadline) fail_recv(src, FailureCause::kTimeout);
        continue;
      }
      if (timeout > 0.0) {
        // Any frame from `src` — heartbeat or data — proves it alive.
        deadline = clock_now() + std::chrono::duration<double>(timeout);
      }
      if (is_control_frame(msg->tag)) {
        on_control_frame(msg->tag, msg->payload);
        continue;
      }
      if (msg->payload.size() != out.size()) return false;
      std::copy(msg->payload.begin(), msg->payload.end(), out.begin());
      return true;
    }
  }

  void barrier() override {
    const int missing = group_->barrier().arrive_and_wait_for(
        static_cast<std::size_t>(rank_), timeout_s());
    if (missing >= 0) {
      // Every timed-out waiter computes the same missing rank from the
      // arrival stamps, so no notice broadcast is needed.
      throw RankFailure(missing, "barrier", FailureCause::kTimeout, rank_,
                        timeout_s());
    }
  }

 private:
  std::shared_ptr<InProcessGroup> group_;
  int rank_;
};

}  // namespace

std::shared_ptr<InProcessGroup> make_in_process_group(int size) {
  if (size <= 0) {
    throw std::invalid_argument("in-process group size must be positive");
  }
  return std::make_shared<InProcessGroup>(size);
}

std::unique_ptr<Transport> make_in_process_transport(
    std::shared_ptr<InProcessGroup> group, int rank) {
  if (rank < 0 || rank >= group->size()) {
    throw std::invalid_argument("in-process transport: bad rank");
  }
  return std::make_unique<InProcessTransport>(std::move(group), rank);
}

}  // namespace spdkfac::comm
