// SchedulePlanner — builds the iteration task-graph (plan.hpp) from a model
// description, the distribution options, and the fitted cost models.
//
// This is the single place the paper's scheduling policies are decided:
//   * WFBP gradient grouping (Horovod threshold fusion, backward order);
//   * Kronecker-factor aggregation per FactorCommMode — one bulk op per
//     family (D-KFAC / MPD-KFAC), naive forward-overlap, layer-wise,
//     threshold-fused, or the Eq. (15) optimal-fusion DP (SPD-KFAC);
//   * all-reduce algorithm resolution (kAuto via the AlgorithmSelector,
//     identically on every rank);
//   * inverse placement per InverseMode — Non-Dist, Seq-Dist, LBP
//     (Algorithm 1) with CT/NCT typing, or Layer-LBP (Algorithm 1 placing
//     whole layers whose owner broadcasts ΔW) — and the broadcast order;
//   * the per-layer Eq. (13) preconditioning tasks and the one apply.
//
// The runtime feeds measured (or profiled) pass timing and executes the
// resulting plan; the simulator feeds model-derived timing and prices it.
// Feeding both from the same timing yields byte-identical plans, which the
// tests/sched equivalence suite exploits.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "comm/codec.hpp"
#include "comm/collectives.hpp"
#include "models/model_spec.hpp"
#include "perf/models.hpp"
#include "perf/online_profiler.hpp"
#include "sched/plan.hpp"

namespace spdkfac::sched {

/// How Kronecker factors are aggregated across workers (Fig. 10 variants).
enum class FactorCommMode {
  kBulk,           ///< one fused op per factor family after backward (-Pipe)
  kNaive,          ///< A factors bulk-overlapped with backward, G bulk after
  kLayerWise,      ///< per-factor all-reduce as computed (LW w/o TF)
  kThresholdFuse,  ///< layer-wise with Horovod 64 MiB threshold (LW w/ TTF)
  kOptimalFuse,    ///< Eq. (15) dynamic fusion (SP w/ OTF, +Pipe)
};

/// How the 2L damped inverses are computed and shared (Fig. 12 variants).
enum class InverseMode {
  kLocalAll,  ///< every GPU inverts everything (Non-Dist, D-KFAC)
  kSeqDist,   ///< round-robin ownership, all CT (Seq-Dist, MPD-KFAC)
  kLBP,       ///< Algorithm 1 with CT/NCT typing (the paper's SPD-KFAC)
  /// Algorithm 1 placing a whole layer wherever that pays: one owner
  /// inverts both factors, preconditions the layer and broadcasts ΔW
  /// instead of the inverses (lbp_layer_place; the runtime's SPD-KFAC).
  kLayerLBP,
};

const char* to_string(FactorCommMode mode) noexcept;
const char* to_string(InverseMode mode) noexcept;

/// Shape of one preconditioned layer — everything scheduling depends on.
struct LayerShape {
  std::size_t dim_a = 0;
  std::size_t dim_g = 0;
  std::size_t a_elements = 0;     ///< packed upper triangle of A
  std::size_t g_elements = 0;     ///< packed upper triangle of G
  std::size_t grad_elements = 0;  ///< parameter count
};

/// When each factor/gradient becomes computable during the passes, on one
/// global clock.  Drives the fusion DP and the canonical collective
/// submission order; absolute values only matter for fusion quality, the
/// *ordering* along the pass walk is what both consumers must agree on.
struct PassTiming {
  std::vector<double> a_ready;     ///< layer order: A_l ready at a_ready[l]
  std::vector<double> g_ready;     ///< pass order: G of layer L-1-i at [i]
  std::vector<double> grad_ready;  ///< layer order: grad of layer l
  double backward_end = 0.0;

  bool operator==(const PassTiming&) const = default;

  bool empty() const noexcept {
    return a_ready.empty() && g_ready.empty() && grad_ready.empty();
  }
};

struct ScheduleInputs {
  std::vector<LayerShape> layers;  ///< front (input side) to back
  int world_size = 1;
  PassTiming timing;
};

/// The knobs that shape an iteration's plan, each declared once.  The
/// planner reads them through ScheduleOptions; the simulator
/// (sim::AlgorithmConfig) and the runtime (core::DistKfacOptions) derive
/// from this struct and hand it to the planner as one slice, so the plan
/// the runtime executes and the plan the simulator prices cannot drift.
/// Plan-shaping options must be identical on every rank.
struct PlanShape {
  /// Factor aggregation mode — the Fig. 10 pipelining variants
  /// (kOptimalFuse is the paper's Eq. (15) schedule).  Read only when the
  /// plan has a factor phase; the runtime's bulk strategies (D-KFAC,
  /// MPD-KFAC) always aggregate one op per factor family.
  FactorCommMode factor_comm = FactorCommMode::kOptimalFuse;
  /// Load metric Algorithm 1 balances inverse placement by.
  BalanceMetric balance = BalanceMetric::kEstimatedTime;
  /// WFBP gradient fusion threshold (elements), Horovod's 64 MiB default.
  /// Gradient aggregation is always WFBP + threshold fusion, the default
  /// the paper keeps for gradients in every algorithm.
  std::size_t grad_fusion_threshold = kHorovodThresholdElements;
  /// All-reduce algorithm for every factor/gradient aggregation.  kRing
  /// reproduces the seed's collectives with undecorated labels; kAuto
  /// resolves per message size and the cluster's Topology through the
  /// AlgorithmSelector (NCCL-style switching, rank-identical); any concrete
  /// algorithm forces it (labels then carry an "@algo" suffix).
  comm::AllReduceAlgo collective_algo = comm::AllReduceAlgo::kRing;
  /// Codec of the factor all-reduces and inverse broadcasts.  Factors
  /// always ship lossless, so kNone is its only legal value: anything else
  /// throws in plan_iteration and DistKfacOptions::validate.  The field
  /// stays only because the frozen bench/e2e harness copies it; ROADMAP
  /// item 12 retires it.
  comm::Codec factor_codec = comm::Codec::kNone;
  /// Codec of the WFBP gradient all-reduces (comm/codec.hpp): kNone, or
  /// kTopK, which engages per-layer error-feedback residuals in the
  /// runtime, carried across steps and through checkpoints.  Compression
  /// shifts the m of Eq. (14), so the fusion threshold applies to wire
  /// sizes and the simulator charges each gradient collective its wire
  /// bytes plus the modeled encode/decode compute.
  comm::Codec grad_codec = comm::Codec::kNone;
  /// kTopK keep ratio: fraction of gradient elements shipped per message.
  double topk_ratio = 0.01;
};

/// What plan_iteration builds: the shared plan shape plus the per-step
/// phase flags and the inverse placement mode.
struct ScheduleOptions : PlanShape {
  bool second_order = true;
  bool factor_update = true;   ///< factors recomputed+aggregated this step
  bool inverse_update = true;  ///< inverses recomputed this step
  InverseMode inverse = InverseMode::kLBP;
};

/// Cost models the planner decides with (not what execution is priced at —
/// the simulator prices the finished plan with its own calibration).
struct ScheduleCosts {
  perf::AllReduceModel allreduce;  ///< Eq. (14); drives the fusion DP
  perf::BroadcastModel broadcast;  ///< Eq. (27); drives CT/NCT typing
  perf::InverseModel inverse;      ///< Eq. (26); drives CT/NCT + balance
  comm::AlgorithmSelector selector;  ///< kAuto resolution, rank-identical
};

/// The planning-relevant slice of a ClusterCalibration.
ScheduleCosts costs_from(const perf::ClusterCalibration& cal);

/// Builds the iteration task-graph.  Deterministic: equal inputs give
/// byte-identical plans on every rank/consumer.  Throws
/// std::invalid_argument on inconsistent inputs (timing vectors not
/// matching the layer count when their pass is planned, world_size < 1,
/// empty layer list).
IterationPlan plan_iteration(const ScheduleInputs& inputs,
                             const ScheduleOptions& options,
                             const ScheduleCosts& costs);

/// Layer shapes of a ModelSpec (packed factor triangles, parameter counts).
std::vector<LayerShape> shapes_from_model(const models::ModelSpec& model);

/// Pass timing predicted by a compute model — the simulator's planning
/// input, and the deterministic "profile" the equivalence suite hands the
/// runtime.  Mirrors the Fig. 1b pass structure: A_l before F_{l+1} on the
/// forward pass, B_{l+1} then G_l on the backward pass.
PassTiming timing_from_model(const models::ModelSpec& model, std::size_t batch,
                             const perf::ComputeModel& compute,
                             bool second_order);

/// Pass timing from *measured* per-layer times (the online-profiling
/// workflow): the same Fig. 1b walk as timing_from_model, laid out from an
/// OnlineProfiler snapshot.  Unsampled kernel entries contribute nothing;
/// unsampled factor entries get a tiny epsilon so the readiness order stays
/// strictly the per-layer event order.  Throws std::invalid_argument when
/// the snapshot's vectors disagree in length.
PassTiming timing_from_profile(const perf::ProfileSnapshot& profile);

/// Convenience: shapes + timing + world size in one ScheduleInputs.
ScheduleInputs inputs_from_model(const models::ModelSpec& model,
                                 std::size_t batch,
                                 const perf::ComputeModel& compute,
                                 int world_size, bool second_order = true);

}  // namespace spdkfac::sched
