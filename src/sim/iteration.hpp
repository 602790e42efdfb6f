// Prices one training iteration's sched::IterationPlan for each algorithm
// the paper evaluates (Fig. 1 structure, priced by the perf models):
//
//   SGD / S-SGD       — forward, backward, WFBP gradient aggregation;
//   KFAC (1 GPU)      — + factor computation + local inverses;
//   D-KFAC            — + factor all-reduce (bulk, after backward, as in
//                        Pauloski et al. [22]) + local inverses everywhere;
//   MPD-KFAC          — D-KFAC with inverses distributed round-robin and
//                        broadcast (Osawa/Ueno/Pauloski style);
//   SPD-KFAC          — the paper: pipelined factor communication with
//                        dynamic tensor fusion (Eq. 15) + LBP placement
//                        (Algorithm 1) with CT/NCT typing.
//
// The schedule itself — fusion groups, gradient groups, algorithm choices,
// inverse placement, submission order — is built by sched::plan_iteration,
// the same planner the runtime optimizer executes; this module only maps
// the plan onto simulated streams and charges each task its cost-model
// duration.  The pipelining baselines of Fig. 10 (Naive, LW w/o TF, LW w/
// TTF) and the placement baselines of Fig. 12 (Non-Dist, Seq-Dist) are
// expressible through AlgorithmConfig, which is how the ablation of Fig. 13
// is produced.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "comm/codec.hpp"
#include "comm/collectives.hpp"
#include "models/model_spec.hpp"
#include "perf/models.hpp"
#include "sched/plan.hpp"
#include "sched/planner.hpp"
#include "sim/event_sim.hpp"

namespace spdkfac::sim {

/// Schedule-shape knobs, shared with the planner (and hence the runtime).
using sched::FactorCommMode;
using sched::InverseMode;

/// One simulated algorithm: the plan shape shared with the planner and the
/// runtime (sched::PlanShape), plus the simulation-only settings below.
struct AlgorithmConfig : sched::PlanShape {
  std::string name;
  bool second_order = true;  ///< false: plain (S-)SGD
  InverseMode inverse = InverseMode::kLocalAll;
  /// Concurrent compute workers per GPU — the simulator counterpart of the
  /// runtime's DistKfacOptions::pool_size, which counts the same compute
  /// threads (the rank thread included).  1 reproduces the classic
  /// single-stream pricing (factor builds serialize with the passes);
  /// S > 1 adds S-1 auxiliary compute streams that factor-compute tasks
  /// round-robin onto (overlapping them with the next layer's kernel,
  /// exactly what the work-stealing pool does physically) and spreads each
  /// GPU's inverse worklist over all S streams.  The *plan* is identical
  /// for every value; only the pricing of its compute tasks changes.
  int compute_streams = 1;

  /// Planning profile override — the simulator counterpart of
  /// DistKfacOptions::profile.  Empty: derive pass timing from the
  /// calibration's compute model (the classic behaviour).  Non-empty: plan
  /// from exactly this timing, which is how the adaptive equivalence suite
  /// hands the simulator the same synced profile the runtime re-planned
  /// from.  Pricing of the pass/compute tasks still uses the calibration.
  sched::PassTiming profile;

  static AlgorithmConfig sgd();       ///< SGD / S-SGD (depends on world size)
  static AlgorithmConfig kfac();      ///< single-GPU KFAC = D-KFAC at P=1
  static AlgorithmConfig dkfac();     ///< bulk comm + local inverses
  static AlgorithmConfig mpd_kfac();  ///< bulk comm + Seq-Dist inverses
  static AlgorithmConfig spd_kfac();  ///< pipelined fusion + LBP
};

/// One priced collective of the iteration, in the plan's canonical
/// submission order: all-reduces first (gradient + factor, by readiness),
/// then the inverse-phase broadcasts.
struct CollectiveChoice {
  std::string label;   ///< schedule/trace label of the gang task
  TaskKind kind = TaskKind::kOther;
  std::size_t elements = 0;
  comm::AllReduceAlgo algo = comm::AllReduceAlgo::kRing;
  double seconds = 0.0;
  int plan_task = -1;  ///< id into IterationResult::plan.tasks
  int root = -1;       ///< broadcast root (kInverseComm entries only)
};

struct IterationResult {
  std::string algorithm;
  double total = 0.0;  ///< iteration wall-clock (schedule makespan)
  Breakdown breakdown;
  Schedule schedule;
  std::vector<std::string> stream_names;

  /// The task-graph this result priced — what the runtime would execute.
  sched::IterationPlan plan;

  /// Per-collective choices in canonical submission order (world > 1).
  std::vector<CollectiveChoice> collectives;

  /// Factor-communication diagnostics (Fig. 10): total communicated time vs
  /// the non-overlapped residue in `breakdown.factor_comm`.
  double factor_comm_busy = 0.0;
  double factor_comm_hidden_fraction() const noexcept {
    if (factor_comm_busy <= 0.0) return 0.0;
    return 1.0 - breakdown.factor_comm / factor_comm_busy;
  }

  /// The inverse placement used (empty for first-order configs).
  sched::Placement placement;
};

/// The breakdown category (Figs. 2, 9) a plan task is charged to — the one
/// mapping behind simulate_iteration and the control plane's live trace.
/// The update has no category of its own and lands in kOther.
TaskKind breakdown_kind(sched::TaskKind kind) noexcept;

/// Simulates one iteration of `cfg` training `model` with per-GPU batch
/// `batch` on the cluster described by `cal` (cal.world_size workers).
IterationResult simulate_iteration(const models::ModelSpec& model,
                                   std::size_t batch,
                                   const perf::ClusterCalibration& cal,
                                   const AlgorithmConfig& cfg);

/// Convenience: iteration time only.
double iteration_time(const models::ModelSpec& model, std::size_t batch,
                      const perf::ClusterCalibration& cal,
                      const AlgorithmConfig& cfg);

/// Adaptive re-planning, simulated: one iteration per trajectory entry,
/// each planned *and priced* from that epoch's profile — the mirror of the
/// runtime's re-plan loop (which rebuilds its plan every replan_interval
/// steps from the synced online profile).  Feeding both the same
/// trajectory must yield byte-identical plans epoch for epoch; the
/// adaptive equivalence suite enforces exactly that.  `trajectory` may be
/// empty (returns no results).
std::vector<IterationResult> simulate_trajectory(
    const models::ModelSpec& model, std::size_t batch,
    const perf::ClusterCalibration& cal, const AlgorithmConfig& cfg,
    std::span<const sched::PassTiming> trajectory);

}  // namespace spdkfac::sim
