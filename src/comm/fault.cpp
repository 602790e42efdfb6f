#include "comm/fault.hpp"

#include <chrono>
#include <csignal>
#include <thread>
#include <utility>

#include "comm/transport.hpp"

namespace spdkfac::comm {

const char* to_string(FailureCause cause) noexcept {
  switch (cause) {
    case FailureCause::kTimeout:
      return "timeout";
    case FailureCause::kPeerClosed:
      return "peer closed";
    case FailureCause::kPeerNotice:
      return "peer notice";
    case FailureCause::kInjected:
      return "injected";
  }
  return "?";
}

RankFailure::RankFailure(int failed_rank, std::string op, FailureCause cause,
                         int observer_rank, double deadline_s)
    : std::runtime_error("rank failure"),
      failed_rank_(failed_rank),
      observer_rank_(observer_rank),
      cause_(cause),
      op_(std::move(op)),
      deadline_s_(deadline_s) {
  rebuild_message();
}

void RankFailure::set_context(const std::string& op, int plan_task) {
  op_ = op;
  plan_task_ = plan_task;
  rebuild_message();
}

void RankFailure::rebuild_message() {
  message_ = "rank " + std::to_string(failed_rank_) + " failed (" +
             to_string(cause_) + ") during '" + op_ + "' observed by rank " +
             std::to_string(observer_rank_);
  if (plan_task_ >= 0) {
    message_ += " [plan task " + std::to_string(plan_task_) + "]";
  }
  if (deadline_s_ > 0.0) {
    message_ += " after " + std::to_string(deadline_s_) + "s deadline";
  }
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FaultInjector::FaultInjector(const FaultSpec& spec) : spec_(spec) {
  trigger_ = spec_.after_ops;
  if (spec_.seed != 0 && spec_.seed_range > 0) {
    trigger_ = static_cast<std::size_t>(splitmix64(spec_.seed) %
                                        spec_.seed_range);
  }
}

FaultAction FaultInjector::decide(FaultOp op) noexcept {
  if (fired_ || spec_.action == FaultAction::kNone) return FaultAction::kNone;
  if (spec_.op != FaultOp::kAny && spec_.op != op) return FaultAction::kNone;
  if (count_++ != trigger_) return FaultAction::kNone;
  fired_ = true;
  return spec_.action;
}

namespace {

/// Decorator transport implementing the injection seam.  Single-owner like
/// every transport: one per rank, driven from that rank's threads.
class FaultyTransport final : public Transport {
 public:
  FaultyTransport(std::unique_ptr<Transport> inner, const FaultSpec& spec)
      : inner_(std::move(inner)), injector_(spec) {}

  TransportKind kind() const noexcept override { return inner_->kind(); }
  int rank() const noexcept override { return inner_->rank(); }
  int size() const noexcept override { return inner_->size(); }

  void set_timeout(double seconds) noexcept override {
    inner_->set_timeout(seconds);
  }
  double timeout_s() const noexcept override { return inner_->timeout_s(); }
  void heartbeat() override { inner_->heartbeat(); }
  std::size_t heartbeats_sent() const noexcept override {
    return inner_->heartbeats_sent();
  }

  void send(int dst, std::span<const double> payload, std::uint16_t tag,
            int plan_task, std::uint16_t codec) override {
    if (act(FaultOp::kSend)) return;  // dropped
    inner_->send(dst, payload, tag, plan_task, codec);
  }

  bool recv_into(int src, std::span<double> out) override {
    return inner_->recv_into(src, out);
  }

  void barrier() override {
    if (act(FaultOp::kBarrier)) return;  // skipped: the rank walks past it
    inner_->barrier();
  }

  void flush() override { inner_->flush(); }

 private:
  /// Consults the injector; returns true when the op must be skipped
  /// (kDrop).  kHang sleeps out the silence window, then dies like kKill:
  /// SIGKILL for process-per-rank backends (exercising the launcher's
  /// signal reporting), FaultInjected for in-process threads.
  bool act(FaultOp op) {
    switch (injector_.decide(op)) {
      case FaultAction::kNone:
        return false;
      case FaultAction::kDrop:
        return true;
      case FaultAction::kHang:
        std::this_thread::sleep_for(std::chrono::duration<double>(
            injector_.spec().hang_s));
        die();
      case FaultAction::kKill:
        die();
    }
    return false;
  }

  /// The death lands exactly at the trigger op: every earlier send reaches
  /// the carrier first (a queued frame would otherwise die with the
  /// process, and the survivors would fail at an earlier op).
  [[noreturn]] void die() {
    if (inner_->kind() != TransportKind::kInProcess) {
      try {
        inner_->flush();
      } catch (...) {
        // A peer is already gone; the frames it missed no longer matter.
      }
      ::raise(SIGKILL);
    }
    throw FaultInjected("fault injected: rank " + std::to_string(rank()) +
                        " dies");
  }

  std::unique_ptr<Transport> inner_;
  FaultInjector injector_;
};

}  // namespace

std::unique_ptr<Transport> with_fault_injection(std::unique_ptr<Transport> inner,
                                                const FaultSpec& spec) {
  return std::make_unique<FaultyTransport>(std::move(inner), spec);
}

}  // namespace spdkfac::comm
