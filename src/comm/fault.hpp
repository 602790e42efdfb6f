// Fault model of the communication layer: structured failures and a
// deterministic fault-injection seam.
//
// PR 6 put the cluster on real multi-process transports; this header is
// what makes a *dying* rank a first-class, testable event instead of an
// eternal hang.  Two pieces:
//
//   RankFailure    the structured exception every deadline-aware blocking
//                  primitive throws when a peer goes silent: who failed,
//                  which operation observed it, how it was detected
//                  (timeout / closed stream / a peer's failure notice /
//                  injection), and — once the async engine annotates it —
//                  which collective and sched-plan task was in flight.
//
//   FaultInjector  a deterministic, seedable trigger that fires exactly
//                  once at a chosen (rank, op, occurrence) and decides the
//                  failure mode: kDrop (the op silently does nothing),
//                  kHang (the rank stalls for hang_s, then dies), kKill
//                  (the rank dies on the spot — SIGKILL for the
//                  process-per-rank backends, an exception for threads).
//                  with_fault_injection() wraps any Transport with the
//                  seam, so the same spec exercises both backends.
//
// The conformance matrix in tests/comm/test_fault_injection.cpp drives
// backend x {drop, hang, kill} x {send, barrier, fused all-reduce} through
// this seam and asserts every survivor surfaces a RankFailure naming the
// dead rank within the configured deadline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace spdkfac::comm {

class Transport;

/// How a rank's death was observed.
enum class FailureCause {
  kTimeout,     ///< no frame (data or heartbeat) within the deadline
  kPeerClosed,  ///< the byte stream ended mid-protocol (socket EOF)
  kPeerNotice,  ///< another rank detected the failure and broadcast it
  kInjected,    ///< the FaultInjector fired on this rank
};

const char* to_string(FailureCause cause) noexcept;

/// A peer rank is gone (or this rank was declared gone): the structured
/// failure every survivor of a dead rank receives instead of a hang.
/// `op` names the blocking primitive that observed the failure ("recv",
/// "send", "barrier"); the async engine rewrites it to the collective's
/// label and fills `plan_task` when the failure surfaced inside a
/// scheduled operation.
class RankFailure : public std::runtime_error {
 public:
  RankFailure(int failed_rank, std::string op, FailureCause cause,
              int observer_rank, double deadline_s = 0.0);

  int failed_rank() const noexcept { return failed_rank_; }
  int observer_rank() const noexcept { return observer_rank_; }
  FailureCause cause() const noexcept { return cause_; }
  const std::string& op() const noexcept { return op_; }
  int plan_task() const noexcept { return plan_task_; }
  double deadline_s() const noexcept { return deadline_s_; }

  /// Engine-side annotation: replaces the primitive-level op name with the
  /// collective's label and attaches the sched-plan task it realizes.
  /// Rewrites what() accordingly.
  void set_context(const std::string& op, int plan_task);

  const char* what() const noexcept override { return message_.c_str(); }

 private:
  void rebuild_message();

  int failed_rank_;
  int observer_rank_;
  FailureCause cause_;
  std::string op_;
  int plan_task_ = -1;
  double deadline_s_;
  std::string message_;
};

/// Thrown on the *victim* rank when the injector fires with kHang or kKill
/// on the in-process backend (process backends raise SIGKILL instead).
class FaultInjected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What the injector does when it fires.
enum class FaultAction {
  kNone,  ///< injection disabled
  kDrop,  ///< the matched op silently does nothing (lost message)
  kHang,  ///< stall for hang_s, then die — a silent rank, detectable only
          ///< by deadline
  kKill,  ///< die immediately (SIGKILL / FaultInjected)
};

/// Which transport operations the trigger counts.
enum class FaultOp {
  kAny,
  kSend,
  kBarrier,
};

/// Deterministic one-shot fault trigger: fires on the (after_ops + 1)-th
/// operation matching `op` on rank `rank`.  With a nonzero `seed` the
/// occurrence index is derived from the seed instead (uniform over
/// [0, seed_range) via splitmix64), so fuzz harnesses can vary *where* the
/// fault lands while every run with the same seed is identical.
struct FaultSpec {
  int rank = -1;  ///< victim rank; < 0 disables injection entirely
  FaultOp op = FaultOp::kAny;
  FaultAction action = FaultAction::kNone;
  std::size_t after_ops = 0;
  double hang_s = 2.0;          ///< kHang: silence duration before dying
  std::uint64_t seed = 0;       ///< nonzero: derive after_ops from the seed
  std::size_t seed_range = 8;   ///< seeded occurrence drawn from [0, range)

  bool enabled_for(int r) const noexcept {
    return action != FaultAction::kNone && rank == r;
  }
};

/// The counting trigger behind the decorator (exposed for tests).
class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec);

  /// Counts one operation of class `op`; returns the configured action on
  /// the trigger occurrence (exactly once), kNone otherwise.
  FaultAction decide(FaultOp op) noexcept;

  /// The resolved 0-based occurrence index the trigger fires at.
  std::size_t trigger_op() const noexcept { return trigger_; }

  const FaultSpec& spec() const noexcept { return spec_; }

 private:
  FaultSpec spec_;
  std::size_t trigger_ = 0;
  std::size_t count_ = 0;
  bool fired_ = false;
};

/// Wraps `inner` with the fault-injection seam: matched operations are
/// dropped, stalled or turned into the rank's death per `spec`; everything
/// else forwards untouched (including timeouts and heartbeats).  The
/// launcher installs this on the victim rank's transport when
/// LaunchOptions::fault selects one.
std::unique_ptr<Transport> with_fault_injection(std::unique_ptr<Transport> inner,
                                                const FaultSpec& spec);

}  // namespace spdkfac::comm
