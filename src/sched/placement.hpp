// Load-balancing placement of matrix-inverse workloads (paper §IV-B,
// Algorithm 1).
//
// After factor aggregation every GPU holds identical global factors; the 2L
// damped inverses (A_l + gamma I)^-1, (G_l + gamma I)^-1 must then be
// obtained by every GPU.  Each tensor is either
//   * a CT (communicated tensor): inverted on exactly one GPU and broadcast
//     to the rest, or
//   * an NCT (non-communicated tensor): inverted redundantly by every GPU
//     with no communication (profitable when t_comp < t_comm, Fig. 11).
//
// Algorithm 1 traverses tensors in descending dimension order, classifies
// each via the fitted performance models, and assigns CTs to the currently
// least-loaded GPU.  The baselines of Fig. 12 — Non-Dist (everything NCT,
// i.e. D-KFAC) and Seq-Dist (round-robin CTs, i.e. MPD-KFAC [13,20,22]) —
// are provided alongside, and so is a layer-granular variant in the manner
// of KAISA (Pauloski et al., SC'21): a layer whose owner inverts both of
// its factors, preconditions its gradient and broadcasts the d_out x d_in
// update ΔW instead of the two inverses.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "perf/models.hpp"

namespace spdkfac::sched {

/// Where one tensor's inverse is computed.
struct TensorAssignment {
  std::size_t tensor = 0;  ///< index into the input dims
  std::size_t dim = 0;
  bool nct = false;  ///< true: replicated on every GPU, no broadcast
  int owner = -1;    ///< owning GPU for CTs; -1 for NCTs
};

/// Full placement: per-tensor assignments plus per-GPU CT worklists.
struct Placement {
  std::string policy;
  int world_size = 1;
  std::vector<TensorAssignment> assignments;      // index-aligned with dims
  std::vector<std::vector<std::size_t>> per_gpu;  // CT tensor ids per GPU
  /// Per layer (tensors 2l and 2l+1), lbp_layer_place only: the GPU that
  /// inverts both factors, preconditions the layer and broadcasts ΔW_l;
  /// -1 when every GPU preconditions it.  Empty for the tensor-granular
  /// policies.  An owned layer's tensors are CTs of the owner that are
  /// never broadcast.
  std::vector<int> layer_owner;

  bool owned(std::size_t layer) const noexcept {
    return layer < layer_owner.size() && layer_owner[layer] >= 0;
  }

  std::size_t num_ncts() const noexcept;
  std::size_t num_cts() const noexcept;

  /// Sanity: every tensor appears either as an NCT or on exactly one GPU.
  bool valid(std::size_t num_tensors) const noexcept;
};

/// What Algorithm 1 balances when choosing the least-loaded GPU.  The
/// paper's pseudocode accumulates the raw dimension d_i (line 13) while the
/// surrounding text balances by d_i^2 (Eq. 25); we additionally support the
/// estimated wall-clock cost implied by the objective of Eq. (21).  The
/// ablation bench compares all three; kEstimatedTime is the default.
enum class BalanceMetric { kDim, kDimSquared, kEstimatedTime };

/// Algorithm 1: LBP with dynamic CT/NCT typing.
Placement lbp_place(std::span<const std::size_t> dims, int world_size,
                    const perf::InverseModel& inverse,
                    const perf::BroadcastModel& broadcast,
                    BalanceMetric metric = BalanceMetric::kEstimatedTime);

/// Algorithm 1 at layer granularity.  `dims` holds layer l's factors at
/// 2l (A_l, d_in) and 2l+1 (G_l, d_out).  Layer l is owned when
///   sum of its CTs' broadcast times + (P-1)/P * t_update
///     > broadcast.time_elements(d_out * d_in),
/// where t_update = precondition_time(inverse, d_in, d_out): every GPU but
/// the owner stops running the update GEMMs, and one ΔW replaces the CT
/// broadcasts.  The traversal is
/// lbp_place's; the first tensor of an owned layer places the whole layer
/// (weight: both inverses, the update and the ΔW broadcast under
/// kEstimatedTime) on the least-loaded GPU, and its second tensor follows.
/// Other layers' tensors are typed and placed exactly as lbp_place does.
/// Throws std::invalid_argument on an odd tensor count or world_size < 1.
Placement lbp_layer_place(std::span<const std::size_t> dims, int world_size,
                          const perf::InverseModel& inverse,
                          const perf::BroadcastModel& broadcast,
                          BalanceMetric metric = BalanceMetric::kEstimatedTime);

/// Modeled time of layer l's two Eq. (13) GEMMs, G^-1 (∇W A^-1): d_out
/// d_in (d_in + d_out) multiply-adds priced by inverse.cube_time.
double precondition_time(const perf::InverseModel& inverse, std::size_t d_in,
                         std::size_t d_out) noexcept;

/// MPD-KFAC baseline: tensor i on GPU i % P, everything CT.
Placement seq_place(std::span<const std::size_t> dims, int world_size);

/// D-KFAC baseline: every tensor inverted locally by every GPU.
Placement nondist_place(std::span<const std::size_t> dims, int world_size);

/// Predicted cost of executing a placement, per the paper's objective
/// Eq. (21): every GPU pays the compute time of its CTs plus all NCTs plus
/// the broadcast time of its CTs; the phase ends with the slowest GPU.  An
/// owned layer's owner pays one ΔW broadcast instead of its tensors'.
struct PlacementCost {
  std::vector<double> per_gpu_seconds;
  double max_seconds = 0.0;        ///< Eq. (21) objective value
  double bottleneck_comp = 0.0;    ///< compute share of the slowest GPU
  double bottleneck_comm = 0.0;    ///< broadcast share of the slowest GPU
};

PlacementCost predict_cost(const Placement& placement,
                           std::span<const std::size_t> dims,
                           const perf::InverseModel& inverse,
                           const perf::BroadcastModel& broadcast);

}  // namespace spdkfac::sched
