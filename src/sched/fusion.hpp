// Dynamic tensor fusion for Kronecker-factor communication (paper §IV-A).
//
// During the forward pass the factors A_0..A_{L-1} become ready one after
// another; during the backward pass the factors G_L..G_1 do.  Each factor
// could be all-reduced individually ("LW w/o TF"), but small messages are
// dominated by the all-reduce startup latency alpha_ar, so consecutive
// factors should sometimes be merged into one fused buffer.  Eq. (15) gives
// the pairwise merge rule (adapted from MG-WFBP): merge factor l+1 into the
// group of factor l when the next factor becomes ready before the group's
// communication could effectively start, i.e.
//
//     ready(l+1)  <  comm_begin(group) + alpha_ar.
//
// plan_fusion()'s kOptimal policy implements the objective that rule
// approximates — minimal drain time of the pass's communication stream —
// exactly, as an O(L^2) dynamic program over group boundaries.  (Applied
// literally and greedily, Eq. (15) merges without bound whenever every
// inter-factor gap is smaller than alpha_ar, collapsing the pass into one
// bulk op and forfeiting pipelining; the DP keeps the early-drain benefit.
// See the comment in fusion.cpp.)  The same planner also produces the
// baseline policies compared in Fig. 10 (no fusion, threshold fusion,
// single bulk op).
#pragma once

#include <cstddef>
#include <vector>

#include "perf/models.hpp"

namespace spdkfac::sched {

/// One fused all-reduce: factors [first, last] communicated together.
struct FusionGroup {
  std::size_t first = 0;
  std::size_t last = 0;
  std::size_t elements = 0;  ///< total packed elements in the group
  double ready_time = 0.0;   ///< when the last member finished computing
  double comm_start = 0.0;   ///< planner's estimate (max(ready, stream free))
  double comm_end = 0.0;

  std::size_t count() const noexcept { return last - first + 1; }
};

/// Fusion policies evaluated in Fig. 10.
enum class FusionPolicy {
  kNoFusion,    ///< "LW w/o TF": one all-reduce per factor
  kThreshold,   ///< "LW w/ TTF": merge until a byte threshold (Horovod-style)
  kOptimal,     ///< "SP w/ OTF": Eq. (15) decision rule
  kSingleBulk,  ///< everything in one op (the Naive / D-KFAC endpoint)
};

struct FusionPlanInput {
  /// Time each factor finishes computing, in pass order (monotone
  /// non-decreasing).
  std::vector<double> ready_times;
  /// Packed element count of each factor.
  std::vector<std::size_t> sizes;
  /// First instant the communication stream is free (e.g. 0 for the forward
  /// pass; for the backward pass, when the stream drained the A groups).
  double stream_free_at = 0.0;
};

/// Horovod's default fusion threshold: 64 MiB of fp32 elements.
inline constexpr std::size_t kHorovodThresholdElements =
    64ull * 1024 * 1024 / 4;

/// Computes the fused communication schedule for one pass.
///
/// The returned groups are disjoint, consecutive, cover every factor, and
/// carry the planner's predicted communication window under `model`
/// (groups execute back-to-back on a single communication stream, each
/// starting no earlier than its ready time).
std::vector<FusionGroup> plan_fusion(const FusionPlanInput& input,
                                     const perf::AllReduceModel& model,
                                     FusionPolicy policy,
                                     std::size_t threshold_elements =
                                         kHorovodThresholdElements);

}  // namespace spdkfac::sched
