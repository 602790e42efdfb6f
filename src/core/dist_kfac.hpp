// Distributed K-FAC optimizer over the in-process cluster — the runtime
// counterpart of the simulator's algorithm configurations, with real data
// movement and real numerics.
//
// Strategies (Eq. (13) in all cases — identical updates up to floating-point
// reassociation of the all-reduce):
//
//   kDKfac    — local factors are computed for all layers, aggregated in
//               per-family bulk fused all-reduces after the pass, and every
//               worker inverts every factor locally (Non-Dist).
//   kMpdKfac  — as kDKfac, but the 2L damped inverses are distributed
//               round-robin across workers (tensor i on rank i % P) and each
//               result is broadcast to the rest (Seq-Dist, all CT)
//               [Osawa'19 / Ueno'20 / Pauloski'20].
//   kSpdKfac  — the paper: factor aggregation is pipelined with factor
//               computation using Eq. (15) dynamic tensor fusion on the
//               asynchronous engine, and inverses are placed by Algorithm 1
//               with CT/NCT typing — at layer granularity where that pays
//               (sched::InverseMode::kLayerLBP): one owner inverts both of
//               a layer's factors, computes its Eq. (13) update ΔW and
//               broadcasts ΔW instead of the inverses, so no rank repeats
//               another's preconditioning [KAISA, Pauloski'21].
//
// An "inverse" here is always the factored form of the damped factor
// (tensor::damped_cholesky_into): the inverse tasks stop at it, a CT
// broadcast ships its packed lower triangle, and the update solves with it
// (tensor::solve_right / solve_left) instead of multiplying by an explicit
// inverse.
//
// Every step the optimizer asks the sched::SchedulePlanner for the
// iteration's task-graph and *executes* it as a real dataflow: the plan's
// tasks become nodes of an exec::DataflowExecutor on the rank's shared
// work-stealing pool.  Factor computes and damped inverses dispatch to the
// pool the moment their predecessors retire (so A_{l+1} builds while A_l's
// all-reduce flies and while layer l+2's forward kernel runs), collectives
// are handed to the AsyncCommEngine through the executor's ordered lane —
// strictly in the plan's canonical submission order, preserving the
// engine's cross-rank contract byte for byte — and each collective's
// completion unpacks its payload and releases its successors.  The
// simulator prices the same plan, so the two cannot drift (see
// tests/sched/test_equivalence.cpp).  Hooked mode releases the pass-event
// gates from the forward/backward hooks; post-hoc mode replays the same
// gate sequence inside step(); both therefore execute the identical graph.
//
// Every rank constructs one optimizer around its own model replica and
// Communicator; the plan is derived deterministically from the (identical)
// model structure and rank-averaged timing, satisfying the engine's
// ordering contract.
//
// Planning timings come from an online profiling → sync → re-plan → cache
// loop (the runtime realization of the paper's profiling-driven
// TensorFusionController, Section V-A): a perf::OnlineProfiler accumulates
// EMA-smoothed per-task timings from the executor's task observer, the
// pass hooks and the engine's completion records; every `replan_interval`
// iterations (at a factor step) the profile is rank-synced with a small
// all-reduce and the planning timing rebuilt from it; each step's plan is
// then fetched through a sched::PlanCache that memoizes one plan per step
// kind and is emptied only when that timing changes, so steady-state steps
// pay zero planning cost and execute a bitwise-stable schedule.  A
// `profile_trajectory` replays a deterministic sequence of profiles across
// re-plan epochs — the form the adaptive equivalence and determinism
// suites lock down, mirrored by sim::simulate_trajectory; a fixed
// `profile` is its one-entry case, which pins the timing forever
// (reproducible schedules, no sync op).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <vector>

#include <chrono>

#include <span>

#include "comm/async_engine.hpp"
#include "comm/cluster.hpp"
#include "comm/collectives.hpp"
#include "core/buffer_arena.hpp"
#include "core/kfac_optimizer.hpp"
#include "exec/dataflow.hpp"
#include "exec/thread_pool.hpp"
#include "nn/layers.hpp"
#include "perf/models.hpp"
#include "perf/online_profiler.hpp"
#include "sched/plan.hpp"
#include "sched/plan_cache.hpp"
#include "sched/planner.hpp"

namespace spdkfac::core {

enum class DistStrategy { kDKfac, kMpdKfac, kSpdKfac };

const char* to_string(DistStrategy strategy) noexcept;

/// Options of the distributed optimizer: the K-FAC numerics it shares with
/// KfacOptimizer (KfacOptions), the plan shape it shares with the planner
/// and the simulator (sched::PlanShape), and the runtime, transport and
/// profiling settings below.  KL clipping (kl_clip) is computed from the
/// aggregated deltas/gradients, so it is identical on every rank.
struct DistKfacOptions : KfacOptions, sched::PlanShape {
  DistStrategy strategy = DistStrategy::kSpdKfac;

  /// Compute threads per rank, the thread that constructs the optimizer
  /// included: the pool spawns pool_size - 1 workers, and the constructing
  /// thread joins it as its member, so its layer passes split across the
  /// workers and step() runs plan tasks while it waits.  The plan's compute
  /// tasks, the collectives' post-processing and the kernels' inner loops
  /// share these threads; the comm engine pumps on a thread of its own.
  /// Must be >= 1; at 1 the constructing thread runs every plan task.
  /// Results are bitwise identical for every value (see
  /// tests/core/test_determinism.cpp).
  std::size_t pool_size = 2;

  /// Cost models used for planning only (fusion rule, Algorithm 1, CT/NCT).
  /// Defaults are rough in-process-cluster figures; examples re-fit them
  /// with perf::measure_* like the paper's one-time benchmarking.
  perf::AllReduceModel allreduce_model{{2.0e-5, 1.0e-9}};
  perf::BroadcastModel broadcast_model{{1.0e-5, 5.0e-10}};
  perf::InverseModel inverse_model =
      perf::InverseModel::cubic(2.0e-6, 5.0e-10);

  /// Fixed pass timing used for planning instead of live measurements (the
  /// paper's offline-profiling workflow; also what the equivalence suite
  /// feeds both the runtime and the simulator).  Empty: measure factor
  /// times online, rank-average them, and plan layer-wise on the first
  /// factor step.
  sched::PassTiming profile;

  /// Deterministic planning-profile trajectory: re-plan epoch k plans from
  /// entry min(k, size-1).  Overrides live measurement (no profile-sync
  /// op) while keeping the adaptive loop — re-planned schedules become a
  /// pure function of the trajectory, so runs are reproducible and
  /// rank-identical by construction.  Mutually exclusive with `profile`.
  std::vector<sched::PassTiming> profile_trajectory;

  /// Iterations between planning-profile refreshes (>= 1).  A re-plan
  /// fires at the first factor-update step on or after each boundary: the
  /// profile is synced across ranks (live mode), the planning timing
  /// rebuilt, and the next boundary armed.  Steps in between plan from the
  /// unchanged timing — through the plan memo, at zero planning cost.
  std::size_t replan_interval = 1;

  /// Transport backend the launcher builds the cluster on (the optimizer
  /// itself is transport-agnostic — it talks to whatever Communicator it
  /// is handed).  kInProcess runs ranks as threads; kSocket runs one
  /// process per rank (see comm/transport.hpp).  Training is bitwise
  /// identical across both (tests/core/test_determinism).
  comm::TransportKind transport = comm::TransportKind::kInProcess;

  /// Deadline for every blocking communication primitive, in seconds; > 0
  /// arms the transport's failure detection (comm/fault.hpp), so a dead
  /// peer surfaces as comm::RankFailure — naming the rank, the collective
  /// and the plan task — instead of hanging the step forever.  Must exceed
  /// the longest compute gap between this rank's collectives (a rank busy
  /// inverting a large factor does not heartbeat; see the engine's
  /// between-ops heartbeat).  0 (default) keeps wait-forever semantics.
  /// When the launcher already armed a timeout (LaunchOptions), 0 leaves
  /// it in place.
  double comm_timeout_s = 0.0;

  /// Throws std::invalid_argument on nonsensical settings: whatever
  /// KfacOptions::validate() rejects (checked first), a pool_size of 0, a
  /// grad_fusion_threshold / pool_size / replan_interval that is a
  /// negative value wrapped to unsigned, a profile or trajectory entry
  /// containing negative/non-finite entries, both `profile` and
  /// `profile_trajectory` set, a negative/non-finite comm_timeout_s, a
  /// topk factor_codec, or a topk_ratio outside (0, 1].
  void validate() const;
};

/// Copy of `options` with the tunable named `name` set to `value`, already
/// validate()d — the control plane's "set" path.  Tunables are the fields
/// safe to change between steps without reconstructing the optimizer: lr,
/// damping, stat_decay, kl_clip, factor_update_freq, inverse_update_freq,
/// replan_interval (the frequency/interval tunables require `value` to be
/// a positive integer).  Throws std::invalid_argument on an unknown name
/// or a value validate() rejects, leaving the caller's options untouched.
DistKfacOptions with_tunable(const DistKfacOptions& options,
                             const std::string& name, double value);

class DistKfacOptimizer {
 public:
  /// `layers` is this rank's model replica (weights must already be
  /// identical across ranks — use a shared initialization seed).  Throws
  /// std::invalid_argument on an empty layer list or invalid options.
  /// The calling thread becomes the pool's member until the optimizer is
  /// destroyed; step() and the destructor must run on that thread.
  DistKfacOptimizer(std::vector<nn::PreconditionedLayer*> layers,
                    comm::Communicator& comm, DistKfacOptions options = {});

  /// One synchronous step; every rank must call it the same number of
  /// times, each after its local forward + backward pass.  With a
  /// comm_timeout_s armed, a dead peer makes step() throw
  /// comm::RankFailure (naming the rank, collective and plan task) instead
  /// of hanging; the optimizer is then permanently failed() and further
  /// steps throw std::logic_error.
  void step();

  /// Hooks implementing the SPDKFACOptimizer architecture of Fig. 6: pass
  /// them to Sequential::forward/backward so Kronecker factors and WFBP
  /// gradient groups are computed *and submitted to the async engine*
  /// inline with the passes — real communication/computation overlap
  /// instead of post-hoc aggregation in step().
  ///
  ///   model.forward(x, optimizer.pass_hooks());
  ///   loss/backward ...
  ///   model.backward(grad, optimizer.pass_hooks());
  ///   optimizer.step();   // drains the dataflow, inverts, updates
  ///
  /// Hooked and post-hoc steps execute the identical plan (same buffers,
  /// same collective order), so they are numerically interchangeable; every
  /// rank must use hooks for the same steps.
  ///
  /// An incomplete hooked step (forward hooks fired, backward hooks
  /// forgotten) makes step() throw; the abandoned dataflow cannot be
  /// resumed — the optimizer then refuses further steps and must be
  /// reconstructed (as must its peers: their collective state diverged).
  nn::PassHooks pass_hooks();

  std::size_t steps() const noexcept { return step_count_; }
  DistStrategy strategy() const noexcept { return options_.strategy; }

  /// The options in effect (as adjusted by set_tunable).  Read between
  /// steps only, like every introspection accessor.
  const DistKfacOptions& options() const noexcept { return options_; }

  int world_size() const noexcept { return comm_.size(); }
  int rank() const noexcept { return comm_.rank(); }

  /// Applies with_tunable(options(), name, value) — live reconfiguration
  /// without a restart.  Strong guarantee: an unknown name or rejected
  /// value throws std::invalid_argument and the options are untouched.
  /// Call between steps, and on *every* rank with the same (name, value)
  /// sequence: plan-shaping options must stay rank-identical or the next
  /// plans diverge and the collectives mismatch.
  void set_tunable(const std::string& name, double value) {
    options_ = with_tunable(options_, name, value);
  }

  /// Arms an immediate planning-profile refresh: the next factor-update
  /// step re-syncs the profile and re-plans regardless of where the
  /// replan_interval boundary stands.  Call between steps, on every rank
  /// (a one-sided re-plan diverges the collective order).
  void force_replan() noexcept { next_replan_step_ = step_count_; }

  /// Observer for every executed compute task of the plan (factor builds,
  /// inverses, the update), reported as [start_s, end_s) on the engine
  /// clock (the comm_records() timeline) — the control plane's live-trace
  /// feed.  Invoked from pool threads; install before the first step (or
  /// between steps) and make the callback thread-safe.
  using TaskListener =
      std::function<void(const sched::Task&, double start_s, double end_s)>;
  void set_task_listener(TaskListener listener) {
    task_listener_ = std::move(listener);
  }

  /// True after a step threw — comm::RankFailure for a dead peer, or the
  /// exception a plan task threw (std::domain_error for a non-SPD factor),
  /// rethrown on the calling thread at every pool size.  The optimizer
  /// refuses further steps (std::logic_error) — the step's plan was
  /// abandoned mid-flight — and should be reconstructed from a prior
  /// checkpoint.
  bool failed() const noexcept { return failed_; }

  /// Serializes the full optimizer state — step counters, re-planning
  /// epoch, layer weights, Kronecker factors and their factored inverses,
  /// the online profiler, and the planning timing — as a versioned,
  /// CRC-guarded journal (core/checkpoint.hpp).  Call between steps, on
  /// every rank (each rank's state is rank-identical by construction, so
  /// any one rank's checkpoint restores the whole cluster).  A run resumed
  /// from the checkpoint is bitwise identical to the uninterrupted run.
  void save_checkpoint(std::ostream& out) const;

  /// Restores state saved by save_checkpoint into this optimizer.  Layer
  /// count, layer shapes and strategy must match (throws
  /// std::runtime_error otherwise); the world size may differ — the
  /// elastic-restart path: this optimizer was built on the new cluster, so
  /// it plans for its own P.  The plan memo is emptied, and the next step
  /// re-plans from the restored timing.
  void restore_checkpoint(std::istream& in);

  /// Algorithm this optimizer submits for an all-reduce of `elements`
  /// doubles (resolves kAuto through the topology-derived selector).
  comm::AllReduceAlgo collective_algo(std::size_t elements) const {
    return options_.collective_algo == comm::AllReduceAlgo::kAuto
               ? selector_.choose(elements)
               : options_.collective_algo;
  }

  /// The task-graph of the current/last step.
  const sched::IterationPlan& plan() const noexcept { return *plan_; }

  /// The online profiler feeding the adaptive re-planning loop (EMA layer
  /// timings, collective aggregates).  Read between steps only.
  const perf::OnlineProfiler& profiler() const noexcept { return profiler_; }

  /// The plan memo (hit/miss counters expose how often steady state
  /// avoided the planner).
  const sched::PlanCache& plan_cache() const noexcept { return plan_cache_; }

  /// Planning-profile refreshes so far (the adaptive loop's epoch count).
  std::size_t replan_count() const noexcept { return replan_count_; }

  /// The planning timing currently in effect (what the last plan was built
  /// from) — the runtime side of the adaptive equivalence contract.
  const sched::PassTiming& planning_profile() const noexcept {
    return current_timing_;
  }

  /// Inverse placement in effect (from the last step that planned an
  /// inverse phase).
  const sched::Placement& placement() const noexcept { return placement_; }

  /// Execution records of this rank's background communication engine
  /// (submit/start/end timestamps per collective, tagged with plan-task
  /// ids) — the observable overlap.  `first` skips the records a caller
  /// already harvested (see AsyncCommEngine::records).
  std::vector<comm::OpRecord> comm_records(std::size_t first = 0) const {
    return engine_.records(first);
  }

  /// Engine-clock timestamp (the clock comm_records() uses) — lets
  /// harnesses place pass boundaries on the record timeline for overlap
  /// accounting.
  double engine_now_s() const { return engine_.now_s(); }

  /// The zero-copy slab this rank's communication buffers live in.  Tests
  /// check OpRecord::data of plan collectives against arena().contains()
  /// to prove the engine runs in place on the slab.  Read between steps.
  const BufferArena& arena() const noexcept { return arena_; }

  /// Per-iteration bytes the arena path stopped copying/clearing relative
  /// to the seed's layout (per-step buffer zero-fills, the fused path's
  /// dense unpack intermediates, per-step aggregate/broadcast matrix
  /// reallocations), from the last planned step.  Benchmarks report this
  /// as "copies eliminated".
  std::size_t arena_bytes_saved_per_step() const noexcept {
    return arena_saved_bytes_;
  }

  /// Fusion groups used for the A/G factor aggregation of the last factor
  /// step (empty on a single worker, where nothing is communicated).
  const std::vector<sched::FusionGroup>& last_a_groups() const noexcept {
    return plan_->a_groups;
  }
  const std::vector<sched::FusionGroup>& last_g_groups() const noexcept {
    return plan_->g_groups;
  }

  // Introspection for the equivalence tests.
  const tensor::Matrix& factor_a(std::size_t l) const { return state_[l].a; }
  const tensor::Matrix& factor_g(std::size_t l) const { return state_[l].g; }
  /// The factored forms of (A_l + gamma I) and (G_l + gamma I) that
  /// layer l's update solves with (tensor::damped_cholesky_into).
  const tensor::Matrix& cholesky_a(std::size_t l) const {
    return state_[l].a_chol;
  }
  const tensor::Matrix& cholesky_g(std::size_t l) const {
    return state_[l].g_chol;
  }
  const tensor::Matrix& aggregated_grad(std::size_t l) const {
    return agg_grads_[l];
  }

 private:
  struct LayerState {
    tensor::Matrix a, g;
    tensor::Matrix a_chol, g_chol;  ///< factored damped factors
  };

  /// Where one layer's gradient stages: its span inside the gradient
  /// group's buffer (empty: nothing communicated) and that group's task.
  struct GradSlot {
    std::span<double> span;
    int task = -1;
  };

  bool factors_due() const noexcept {
    return step_count_ % options_.factor_update_freq == 0;
  }

  /// All-reduces the profiler's packed vector so every rank plans from the
  /// same profile (a rank-divergent plan would make the collectives
  /// mismatch).
  void sync_profile();
  /// Re-plan point: installs this epoch's planning timing — the next
  /// trajectory entry (a fixed profile is a one-entry trajectory), or the
  /// (synced) live profile laid out along the pass walk.
  void refresh_planning_profile(bool measured_fusion);
  /// Builds this step's plan (through the plan memo), stages the packing
  /// layout, and installs the plan as a dataflow graph on the executor.
  void begin_step();
  /// step() minus the rank-failure teardown wrapper.
  void step_body();
  /// Plan-task -> executor-node translation (see begin_step).
  std::vector<exec::DataflowExecutor::Node> build_nodes();

  // Pass events, shared verbatim by the hooked and post-hoc paths (post-hoc
  // replays the same sequence inside step()).  They only release executor
  // gates and stage gradients; the released work runs on the pool.
  void handle_forward(std::size_t layer);
  void handle_backward_grad(std::size_t layer);
  void handle_backward_factor(std::size_t layer);

  // Dataflow node bodies (pool tasks / lane submissions / completions).
  void run_factor_compute(int task_id);
  void run_inverse(int task_id);
  void run_precondition(int task_id);
  void run_apply();
  void submit_collective(int task_id);
  /// Codec-annotated collective: queued on the engine as a custom pump op
  /// running the comm::compressed_* primitives over the task's arena span.
  /// The kTopK path runs comm::topk_feedback_encode first, serially inside
  /// the pump so selection is deterministic: it folds the members'
  /// error-feedback residuals in and banks the new ones in the same
  /// streaming passes that encode the local wire block.
  void submit_compressed(const sched::Task& task, std::span<double> buffer);
  void postprocess_collective(int task_id);
  /// Carves and zeroes the per-layer error-feedback residual spans on
  /// first use (grad_codec == kTopK); restore_checkpoint also routes
  /// through this before staging saved residuals.
  void ensure_grad_residuals();
  /// Plans this step through the plan memo.
  std::shared_ptr<const sched::IterationPlan> fetch_plan(
      const sched::ScheduleInputs& inputs, const sched::ScheduleOptions& opt);
  /// Whether this rank's inverses of `layer` are the ones its last inverse
  /// step computed (see inverse_holder_).
  bool holds_inverses(std::size_t layer) const noexcept {
    return inverse_holder_[layer] == -1 ||
           inverse_holder_[layer] == comm_.rank();
  }
  /// First off-step after a restore: true when any rank would
  /// precondition a layer with inverses it did not compute (restored from
  /// another rank's checkpoint, or at another world size).  Rank-identical
  /// (one all-reduce); the caller then recomputes the inverses.
  bool restored_inverses_missing();
  /// Plan id of the task building `family`'s factor of model layer `layer`.
  int factor_task(sched::Family family, std::size_t layer) const {
    return family == sched::Family::kA
               ? plan_->a_compute[layer]
               : plan_->g_compute[layers_.size() - 1 - layer];
  }
  const tensor::Matrix& factor_of(std::size_t tensor) const {
    return tensor % 2 == 0 ? state_[tensor / 2].a : state_[tensor / 2].g;
  }
  tensor::Matrix& cholesky_slot(std::size_t tensor) {
    return tensor % 2 == 0 ? state_[tensor / 2].a_chol
                           : state_[tensor / 2].g_chol;
  }

  std::vector<nn::PreconditionedLayer*> layers_;
  comm::Communicator& comm_;
  DistKfacOptions options_;
  comm::AlgorithmSelector selector_;  ///< kAuto resolution (rank-identical)
  sched::ScheduleCosts costs_;

  /// Factor-sized storage persists across steps: each layer's aggregated
  /// factors and factored-inverse slots here, its fresh local factors
  /// (rebuilt by each factor compute) below.  A steady step rebuilds them
  /// in place (tensor::matmul_tn and tensor::damped_cholesky_into
  /// reallocate only on a shape change).
  std::vector<LayerState> state_;
  std::vector<tensor::Matrix> fresh_a_, fresh_g_;
  std::vector<tensor::Matrix> agg_grads_;
  std::size_t step_count_ = 0;
  bool failed_ = false;  ///< a step threw; see failed()

  // Adaptive re-planning state.  `current_timing_` is refreshed only at
  // re-plan points; between them every step plans from it through the
  // memo, which holds only plans built from it.  `profiled_timing_` gates
  // the warm-up fallback (Eq. (15) needs real timings): false until a
  // refresh saw factor samples (live mode) or an injected
  // profile/trajectory supplied timing.
  perf::OnlineProfiler profiler_;
  sched::PlanCache plan_cache_;
  TaskListener task_listener_;  ///< see set_task_listener
  sched::PassTiming current_timing_;
  bool profiled_timing_ = false;
  std::size_t next_replan_step_ = 0;
  std::size_t replan_epoch_ = 0;  ///< trajectory index
  std::size_t replan_count_ = 0;
  /// Previous pass-hook event (hooked mode): successive hook timestamps
  /// yield per-layer forward/backward kernel samples for the profiler.
  std::chrono::steady_clock::time_point last_pass_event_{};

  /// The schedule in execution — immutable and shared with the plan memo,
  /// so a memo hit installs it by pointer instead of copying O(tasks)
  /// state on the steady-state path.  Never null.
  std::shared_ptr<const sched::IterationPlan> plan_ =
      std::make_shared<const sched::IterationPlan>();
  sched::Placement placement_;

  // Per-step execution state.  The packing layout is two tables built from
  // the plan in begin_step: each collective's span is carved from the
  // arena (plan order, no per-step allocation or zeroing), and every
  // producer's span is a view into its consumer collective's, so
  // concurrent compute tasks write disjoint ranges without contending.
  // The async engine submits the collective spans in place — zero-copy,
  // verified via OpRecord::data.
  bool hooked_active_ = false;
  std::size_t backward_events_ = 0;  ///< hooked completeness check
  BufferArena arena_;
  std::size_t arena_saved_bytes_ = 0;  ///< see arena_bytes_saved_per_step()
  /// Per plan task id: a collective's whole payload; a factor compute's
  /// member range of its fused group; a CT inverse's broadcast payload.
  /// Empty: the task communicates nothing (single worker, NCT inverse).
  std::vector<std::span<double>> task_buffer_;
  /// Per layer: the gradient's staging range and its group's task.
  std::vector<GradSlot> grad_slots_;
  /// Per layer: ΔW_l = G^-1 ∇W A^-1, solved in place by the layer's
  /// kPrecondition (from a copy of ∇W) and read by kApply.  An owned
  /// layer's ΔW is its broadcast payload, so the owner computes straight
  /// into what it ships and every other rank receives into what it applies.
  std::vector<std::span<double>> deltas_;
  /// Per layer: whose inverses this rank's a_chol/g_chol are, as of the
  /// last inverse step — -1 when every rank computed or received them,
  /// else the owner that computed them (the only rank holding current
  /// ones); -2 after a restore that cannot vouch for them.  Checkpointed.
  std::vector<int> inverse_holder_;
  /// Set by restore_checkpoint: the next off-step checks
  /// restored_inverses_missing() before it plans.
  bool restore_check_pending_ = false;
  /// Gather/decode scratch for codec-annotated collectives, sized for the
  /// step's largest one.  The engine pump runs ops serially, so one shared
  /// region is race-free.  Empty on lossless steps.
  std::span<double> codec_scratch_;
  /// Error-feedback state (grad_codec == kTopK): one residual span per
  /// layer, persistent across steps (and re-plans — layers are the stable
  /// unit when groups reshape), carved once from its own arena.
  BufferArena residual_arena_;
  std::vector<std::span<double>> grad_residuals_;
  /// The residual spans of the top-k group the pump is encoding, in payload
  /// order (pump-only, like codec_scratch_; keeps its capacity across steps).
  std::vector<std::span<double>> topk_banks_;

  // Execution infrastructure — declared last, in this exact order, so
  // destruction runs the engine first (drains in-flight collectives, whose
  // completions enqueue pool work), then the membership (the constructing
  // thread's ambient pool reverts), then the pool (runs that work, which
  // reports into the executor), then the executor.
  exec::DataflowExecutor executor_;
  exec::ThreadPool pool_;  ///< pool_size - 1 workers
  exec::ThreadPool::Member member_;  ///< the constructing thread
  comm::AsyncCommEngine engine_;
};

}  // namespace spdkfac::core
