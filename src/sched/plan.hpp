// The iteration task-graph: one authoritative schedule representation
// consumed by both the runtime (`core::DistKfacOptimizer` executes it with
// real numerics on the async engine) and the simulator
// (`sim::simulate_iteration` prices it with the perf cost models).
//
// Everything the paper's scheduling contributions decide lives here as
// explicit, typed tasks with dependency edges:
//   * which Kronecker factors fuse into which all-reduce (Eq. 15),
//   * which WFBP gradient groups form and when they flush,
//   * which all-reduce algorithm each collective uses (selector-resolved),
//   * where each damped inverse runs and what gets broadcast
//     (Algorithm 1, CT/NCT).
// Because both layers traverse the same plan, the simulator cannot silently
// drift from the runtime: the tests/sched equivalence suite checks that the
// runtime's recorded collective submissions are exactly the plan's
// collective task sequence, which in turn is exactly what the simulator
// prices.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/codec.hpp"
#include "sched/fusion.hpp"
#include "sched/placement.hpp"

namespace spdkfac::sched {

/// Task types of one training iteration's schedule (beyond the model's own
/// forward/backward passes, which frame the plan but are not scheduled by
/// it).
enum class TaskKind {
  kFactorCompute,   ///< build one Kronecker factor (A_l or G_l) locally
  kFusedAllReduce,  ///< aggregate one fused factor group across workers
  kGradAllReduce,   ///< aggregate one WFBP gradient group across workers
  kInverse,         ///< damped inverse of one tensor (owner or replicated)
  kBroadcast,       ///< ship one CT inverse from its owner to every worker
  kUpdate,          ///< apply the preconditioned update (Eq. 13)
};

const char* to_string(TaskKind kind) noexcept;

/// Which per-layer quantity a factor/gradient task belongs to.
enum class Family { kNone, kA, kG, kGrad };

const char* to_string(Family family) noexcept;

/// One node of the iteration task-graph.  Field applicability by kind:
///
///   kFactorCompute   family, layer, pass_index, dim, elements, ready
///   kFusedAllReduce  family, first/last (pass positions), member_layers,
///                    elements, algo, ready, deferred, deps
///   kGradAllReduce   member_layers (pack order, deepest first), first =
///                    flush layer, last = deepest member, elements, algo,
///                    ready, deps (backward-pass dependency is implicit in
///                    `first`)
///   kInverse         tensor, dim, elements (packed), rank (owner; -1 =
///                    replicated NCT), deps (the factor barrier)
///   kBroadcast       tensor, dim, elements, rank (root), deps
///   kUpdate          elements (total parameters), deps
struct Task {
  int id = -1;
  TaskKind kind = TaskKind::kUpdate;
  Family family = Family::kNone;

  std::size_t layer = 0;       ///< model layer (kFactorCompute)
  std::size_t pass_index = 0;  ///< position within its pass (kFactorCompute)
  std::size_t first = 0;       ///< see table above
  std::size_t last = 0;
  std::vector<std::size_t> member_layers;  ///< model layers, pack order

  std::size_t tensor = 0;  ///< T_{2l} = A_l, T_{2l+1} = G_l
  std::size_t dim = 0;

  std::size_t elements = 0;  ///< payload size in doubles
  int rank = -1;             ///< owner/root; -1 = every rank

  comm::AllReduceAlgo algo = comm::AllReduceAlgo::kRing;

  /// Payload codec of a collective task — planner-resolved, never kAuto —
  /// and the wire doubles actually shipped under it.  `elements` stays the
  /// logical payload size; wire_elements == elements when codec == kNone
  /// (and 0 on non-collective tasks, which ship nothing).
  comm::Codec codec = comm::Codec::kNone;
  std::size_t wire_elements = 0;

  /// Planner's readiness estimate; collective tasks are ordered by it, and
  /// the runtime submits them in exactly that order (the async engine's
  /// cross-rank ordering contract).
  double ready = 0.0;
  /// Collective is submitted after the passes drain (bulk modes) instead of
  /// the moment its last member is packed.
  bool deferred = false;

  std::vector<int> deps;  ///< plan-task ids that must finish first
  std::string label;      ///< canonical name, shared by runtime op records
                          ///< and simulator trace labels

  bool is_collective() const noexcept {
    return kind == TaskKind::kFusedAllReduce ||
           kind == TaskKind::kGradAllReduce || kind == TaskKind::kBroadcast;
  }
};

/// The full plan for one iteration.  `tasks` is in submission/topological
/// order; the index vectors are views into it by role so consumers do not
/// re-derive structure.
struct IterationPlan {
  int world_size = 1;
  bool second_order = true;
  bool factor_update = true;
  bool inverse_update = true;

  std::vector<Task> tasks;  ///< task id == index

  // Fusion/grouping views (what the legacy accessors exposed).
  std::vector<FusionGroup> a_groups, g_groups;
  /// WFBP gradient groups in backward order; members deepest-layer first
  /// (the pack order).
  std::vector<std::vector<std::size_t>> grad_groups;
  Placement placement;  ///< empty assignments when no inverse phase planned

  // Task-id indices.
  std::vector<int> a_compute;   ///< per layer (forward pass order)
  std::vector<int> g_compute;   ///< per pass position (deepest layer first)
  std::vector<int> a_comm;      ///< per A fusion group
  std::vector<int> g_comm;      ///< per G fusion group
  std::vector<int> grad_comm;   ///< per gradient group
  std::vector<int> comm_order;  ///< all all-reduce tasks, submission order
  std::vector<int> inverse_tasks;    ///< execution order (CTs then NCTs)
  std::vector<int> broadcast_tasks;  ///< submission order
  int update_task = -1;

  const Task& task(int id) const { return tasks[static_cast<std::size_t>(id)]; }

  /// Every collective in canonical submission order: `comm_order` followed
  /// by `broadcast_tasks` (the inverse phase starts only after the factor
  /// barrier, so broadcasts always trail the all-reduces).
  std::vector<int> collective_order() const;

  std::size_t num_collectives() const noexcept {
    return comm_order.size() + broadcast_tasks.size();
  }

  /// Bytes one iteration puts on the wire: the sum of the collective tasks'
  /// post-codec payloads (`wire_elements`), or of one collective `kind`'s
  /// only.  Algorithm-level multipliers (a ring's 2(P-1)/P passes) hit
  /// lossless and compressed payloads alike, so they cancel out of every
  /// compression ratio derived from this.
  std::size_t wire_bytes(std::optional<TaskKind> kind = {}) const noexcept;

  /// Same sum over the logical (pre-codec) payloads — the lossless
  /// baseline the wire bytes are compared against.
  std::size_t raw_bytes(std::optional<TaskKind> kind = {}) const noexcept;
};

}  // namespace spdkfac::sched
