// Performance models of Section III-V of the paper.
//
//   * All-reduce (Eq. 14):  t_ar(m)    = alpha_ar + beta_ar * m
//   * Broadcast (Eq. 27):   t_bcast(d) = alpha_b  + beta_b  * d*(d+1)/2
//   * SPD inverse (Eq. 26): t_inv(d)   = alpha_inv * exp(beta_inv * d)
//
// plus FLOP-derived compute models for layer forward/backward passes and
// Kronecker-factor construction.  The ClusterCalibration presets carry the
// constants the paper fitted on its 64x RTX2080Ti / 100Gb InfiniBand testbed
// (Figs. 7 and 8), which drive the discrete-event simulator; the fitting
// routines are also used to calibrate models against *measured* CPU timings
// in bench_comm_models / bench_inverse_model, mirroring the paper's one-time
// benchmarking workflow (Section V-B).
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "comm/collectives.hpp"
#include "comm/topology.hpp"

namespace spdkfac::perf {

/// t(x) = alpha + beta * x — the same alpha-beta form as a link's cost.
using LinearModel = comm::LinkModel;

/// t(x) = alpha * exp(beta * x).
struct ExpModel {
  double alpha = 0.0;
  double beta = 0.0;

  double operator()(double x) const noexcept;
};

/// Ordinary least-squares fit of y = alpha + beta * x.
/// Requires xs.size() == ys.size() >= 2.
LinearModel fit_linear(std::span<const double> xs, std::span<const double> ys);

/// Log-space least-squares fit of y = alpha * exp(beta * x); all ys must be
/// positive.  This matches how the paper fits Eq. (26) to measured inverse
/// timings.
ExpModel fit_exponential(std::span<const double> xs,
                         std::span<const double> ys);

/// Coefficient of determination (R^2) of predictions against observations.
double r_squared(std::span<const double> predicted,
                 std::span<const double> observed);

// ---------------------------------------------------------------------------
// Semantic wrappers
// ---------------------------------------------------------------------------

/// Eq. (14): ring all-reduce cost over the cluster fabric.
struct AllReduceModel {
  LinearModel model;

  /// Time to all-reduce a tensor of `elements` 32-bit values.
  double time(std::size_t elements) const noexcept {
    return model(static_cast<double>(elements));
  }
  double startup() const noexcept { return model.alpha; }
};

/// Eq. (27): broadcast of a packed symmetric d x d matrix.
struct BroadcastModel {
  LinearModel model;  // x = number of transmitted elements

  /// Time to broadcast `elements` values.
  double time_elements(std::size_t elements) const noexcept {
    return model(static_cast<double>(elements));
  }
  /// Time to broadcast the packed upper triangle of a d x d matrix.
  double time_dim(std::size_t d) const noexcept {
    return model(static_cast<double>(d) * (d + 1) / 2.0);
  }
};

/// Damped SPD inverse of a d x d matrix on one accelerator.
///
/// Two functional forms are supported:
///   * kExponential — Eq. (26) as printed, t = alpha * exp(beta * d).  This
///     is what the paper fits in Fig. 8 and what the Fig. 8/11 benches
///     reproduce.  Note its floor: t(0+) = alpha = 3.64 ms, which makes it a
///     poor *absolute* cost for small tensors (the paper's own Fig. 2 total
///     of 292 ms for 108 ResNet-50 inverses is below 108 * alpha, so the
///     measured small-tensor inverses must be far cheaper than the fit).
///   * kCubic — t = overhead + coef * d^3, the Cholesky cost law plus a
///     kernel-launch floor.  The simulator prices inverse tasks with this
///     form (calibrated to Fig. 8's large-d endpoint) so that per-layer
///     sums reproduce the breakdown figures; see docs/ARCHITECTURE.md
///     ("Modeling notes").
struct InverseModel {
  enum class Form { kExponential, kCubic };
  Form form = Form::kExponential;
  double alpha = 0.0;  ///< exp: prefactor; cubic: per-call overhead seconds
  double beta = 0.0;   ///< exp: exponent rate; cubic: seconds per d^3

  static InverseModel exponential(double alpha, double beta) noexcept {
    return InverseModel{Form::kExponential, alpha, beta};
  }
  static InverseModel cubic(double overhead, double coef) noexcept {
    return InverseModel{Form::kCubic, overhead, coef};
  }

  double time(std::size_t d) const noexcept;

  /// Seconds for `n3` multiply-adds (an m x k by k x n GEMM has n3 = m k n)
  /// at this model's per-d^3 rate: the cubic form's coefficient, or for
  /// the exponential form the rise of its curve above the floor,
  /// time(d) - time(0) at d^3 = n3.  Prices the Eq. (13) GEMMs that
  /// layer-granular placement saves (sched::lbp_layer_place).
  double cube_time(double n3) const noexcept;
};

/// FLOP-throughput compute model for layer work.  Every task cost is
/// flops / effective_flops + kernel_overhead; the effective throughputs are
/// calibration constants (GPU kernels rarely hit peak, and factor GEMMs have
/// different efficiency from cuDNN convolutions).
struct ComputeModel {
  // Defaults calibrated so ResNet-50 (batch 32) reproduces Fig. 2's
  // single-GPU breakdown: FF&BP ~0.20 s, FactorComp ~0.26 s.
  double fwd_flops_per_s = 4.0e12;     ///< effective cuDNN forward throughput
  double bwd_flops_per_s = 4.0e12;     ///< effective backward throughput
  double factor_flops_per_s = 3.1e12;  ///< effective a^T a GEMM throughput
  double kernel_overhead_s = 20e-6;    ///< per-kernel launch overhead

  double fwd_time(double flops) const noexcept {
    return flops / fwd_flops_per_s + kernel_overhead_s;
  }
  double bwd_time(double flops) const noexcept {
    return flops / bwd_flops_per_s + kernel_overhead_s;
  }
  double factor_time(double flops) const noexcept {
    return flops / factor_flops_per_s + kernel_overhead_s;
  }
};

/// Everything the simulator and the placement/fusion planners need to price
/// computation and communication on a target cluster.
struct ClusterCalibration {
  std::string name;
  int world_size = 1;
  AllReduceModel allreduce;
  /// Fig. 7b fit (large-message broadcast): used for the Fig. 7/11 curves.
  BroadcastModel broadcast;
  /// Per-broadcast occupancy of the shared fabric, calibrated for the
  /// small/medium packed-triangle messages the inverse phase actually sends
  /// (Fig. 7b's intercept of 15.9 ms is a large-message artifact that would
  /// overestimate a small broadcast ~50x).  Concurrent broadcasts from
  /// different roots contend on this fabric — the effect that makes
  /// Seq-Dist's 2L broadcasts expensive in Figs. 2, 9 and 12.  The beta
  /// term carries a 0.5 tree-overlap factor (disjoint binomial trees share
  /// links only partially).
  BroadcastModel bcast_fabric;
  InverseModel inverse;
  ComputeModel compute;

  /// Cluster shape plus per-algorithm all-reduce cost terms (the NCCL-style
  /// algorithm switching the paper's fixed flat testbed never needed).
  /// Populated by for_topology(); calibrations built any other way stay
  /// ring-only and price every all-reduce with `allreduce` above.
  comm::Topology topology;
  comm::AlgorithmSelector collectives;
  bool topology_aware = false;

  /// The paper's testbed: 64x Nvidia RTX2080Ti over 100Gb/s InfiniBand,
  /// constants as fitted in Figs. 7 and 8:
  ///   alpha_ar = 1.22e-2, beta_ar = 1.45e-9,
  ///   alpha_bcast = 1.59e-2, beta_bcast = 7.85e-10,
  ///   alpha_inv = 3.64e-3, beta_inv = 4.77e-4 (see fig8_inverse_model()).
  /// The preset's task-pricing inverse model is the cubic form calibrated
  /// to the same Fig. 8 endpoint (t(8192) ~ 0.176 s).
  static ClusterCalibration paper_rtx2080ti_64gpu();

  /// The exponential Eq. (26) fit exactly as printed in Fig. 8.
  static InverseModel fig8_inverse_model() noexcept {
    return InverseModel::exponential(3.64e-3, 4.77e-4);
  }

  /// Same fabric constants scaled for an arbitrary world size.  The paper's
  /// alpha/beta were measured at P = 64; ring all-reduce startup grows with
  /// P and per-element cost approaches 2(P-1)/P / bandwidth, so we rescale
  /// both terms accordingly when simulating other cluster sizes.
  static ClusterCalibration paper_fabric(int world_size);

  /// Topology-aware calibration: paper_fabric compute/inverse/broadcast
  /// constants for topo.world_size() workers, plus an AlgorithmSelector
  /// built from topo's link models.  The ring `allreduce` model is replaced
  /// by the selector's ring term so that "always ring" baselines and the
  /// selector price the same algorithm identically (the Eq. (14) role is
  /// unchanged: t = alpha + beta*m, just derived from the links).
  static ClusterCalibration for_topology(const comm::Topology& topo);

  /// The selector to price/choose all-reduce algorithms with.  For
  /// topology-aware calibrations this is `collectives`; otherwise a flat
  /// selector is derived from the ring `allreduce` fit so non-ring pricing
  /// stays consistent with this calibration's Eq. (14) constants.
  comm::AlgorithmSelector effective_selector() const;
};

/// Crossover dimension of Fig. 11: the largest d (searched over [1, d_max])
/// with t_inv(d) < t_bcast(d).  Tensors at or below this dimension should be
/// non-communicated tensors (NCTs) under the paper's CT/NCT policy.
std::size_t ct_nct_crossover_dim(const InverseModel& inv,
                                 const BroadcastModel& bcast,
                                 std::size_t d_max = 16384);

}  // namespace spdkfac::perf
