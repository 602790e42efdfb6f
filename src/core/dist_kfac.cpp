#include "core/dist_kfac.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/kernels/kernels.hpp"
#include "tensor/linalg.hpp"
#include "tensor/symmetric.hpp"

namespace spdkfac::core {

using tensor::Matrix;

const char* to_string(DistStrategy strategy) noexcept {
  switch (strategy) {
    case DistStrategy::kDKfac:
      return "D-KFAC";
    case DistStrategy::kMpdKfac:
      return "MPD-KFAC";
    case DistStrategy::kSpdKfac:
      return "SPD-KFAC";
  }
  return "?";
}

void DistKfacOptions::validate() const {
  KfacOptions::validate();
  // size_t fields cannot be negative, but a negative literal wraps silently
  // to a huge value — for the threshold that would fuse every gradient into
  // one giant group, for the pool it would try to spawn ~2^64 threads.
  if (grad_fusion_threshold > std::numeric_limits<std::size_t>::max() / 2) {
    throw std::invalid_argument(
        "DistKfacOptions: grad_fusion_threshold is a negative value cast to "
        "unsigned");
  }
  if (pool_size == 0) {
    throw std::invalid_argument("DistKfacOptions: pool_size must be >= 1");
  }
  if (pool_size > 4096) {
    throw std::invalid_argument(
        "DistKfacOptions: pool_size is absurdly large (negative value cast "
        "to unsigned?)");
  }
  if (replan_interval == 0) {
    throw std::invalid_argument(
        "DistKfacOptions: replan_interval must be >= 1");
  }
  if (replan_interval > std::numeric_limits<std::size_t>::max() / 2) {
    throw std::invalid_argument(
        "DistKfacOptions: replan_interval is a negative value cast to "
        "unsigned");
  }
  if (comm_timeout_s < 0.0 || !std::isfinite(comm_timeout_s)) {
    throw std::invalid_argument(
        "DistKfacOptions: comm_timeout_s must be finite and >= 0");
  }
  const auto check_pass_timing = [](const sched::PassTiming& timing,
                                    const char* what) {
    const auto check_timing = [what](const std::vector<double>& v,
                                     const char* name) {
      for (double t : v) {
        if (!(t >= 0.0) || !std::isfinite(t)) {
          throw std::invalid_argument(std::string("DistKfacOptions: ") +
                                      what + "." + name +
                                      " entries must be finite and "
                                      "non-negative");
        }
      }
    };
    check_timing(timing.a_ready, "a_ready");
    check_timing(timing.g_ready, "g_ready");
    check_timing(timing.grad_ready, "grad_ready");
    if (!(timing.backward_end >= 0.0) ||
        !std::isfinite(timing.backward_end)) {
      throw std::invalid_argument(std::string("DistKfacOptions: ") + what +
                                  ".backward_end must be finite and "
                                  "non-negative");
    }
  };
  check_pass_timing(profile, "profile");
  for (const sched::PassTiming& timing : profile_trajectory) {
    check_pass_timing(timing, "profile_trajectory");
  }
  if (!profile.empty() && !profile_trajectory.empty()) {
    throw std::invalid_argument(
        "DistKfacOptions: profile and profile_trajectory are mutually "
        "exclusive");
  }
  if (factor_codec == comm::Codec::kTopK) {
    throw std::invalid_argument(
        "DistKfacOptions: factor_codec cannot be topk (factors are dense; "
        "sparsifying them breaks the Kronecker approximation)");
  }
  if (!(topk_ratio > 0.0) || !(topk_ratio <= 1.0) ||
      !std::isfinite(topk_ratio)) {
    throw std::invalid_argument(
        "DistKfacOptions: topk_ratio must be in (0, 1]");
  }
}

DistKfacOptions with_tunable(const DistKfacOptions& options,
                             const std::string& name, double value) {
  DistKfacOptions next = options;
  // The frequency/interval tunables arrive as doubles off the ctl wire;
  // insist on an exact positive integer so "set replan_interval=2.5"
  // fails loudly instead of truncating.  Above 2^53 doubles stop being
  // exact integers, and past size_t's range the cast is undefined.
  const auto as_count = [&](const char* what) {
    if (!std::isfinite(value) || value < 1.0 ||
        value != std::floor(value)) {
      throw std::invalid_argument(std::string("DistKfacOptions: ") + what +
                                  " must be a positive integer");
    }
    if (value > 0x1p53) {
      throw std::invalid_argument(std::string("DistKfacOptions: ") + what +
                                  " must be at most 2^53");
    }
    return static_cast<std::size_t>(value);
  };
  if (name == "lr") {
    next.lr = value;
  } else if (name == "damping") {
    next.damping = value;
  } else if (name == "stat_decay") {
    next.stat_decay = value;
  } else if (name == "kl_clip") {
    next.kl_clip = value;
  } else if (name == "factor_update_freq") {
    next.factor_update_freq = as_count("factor_update_freq");
  } else if (name == "inverse_update_freq") {
    next.inverse_update_freq = as_count("inverse_update_freq");
  } else if (name == "replan_interval") {
    next.replan_interval = as_count("replan_interval");
  } else {
    throw std::invalid_argument(
        "DistKfacOptions: unknown tunable '" + name +
        "' (expected lr, damping, stat_decay, kl_clip, factor_update_freq, "
        "inverse_update_freq or replan_interval)");
  }
  next.validate();
  return next;
}

namespace {

/// EMA weight of a new sample in the online profiler.
constexpr double kProfileEma = 0.5;

/// Validates before the constructor spawns any pool thread.
DistKfacOptions validated(DistKfacOptions options) {
  options.validate();
  return options;
}

void add_dep(std::vector<int>& deps, int id) {
  if (std::find(deps.begin(), deps.end(), id) == deps.end()) {
    deps.push_back(id);
  }
}

}  // namespace

DistKfacOptimizer::DistKfacOptimizer(
    std::vector<nn::PreconditionedLayer*> layers, comm::Communicator& comm,
    DistKfacOptions options)
    : layers_(std::move(layers)),
      comm_(comm),
      options_(validated(std::move(options))),
      selector_(comm.topology()),
      costs_{options_.allreduce_model, options_.broadcast_model,
             options_.inverse_model, selector_},
      profiler_(std::max<std::size_t>(layers_.size(), 1), kProfileEma),
      pool_(options_.pool_size - 1),
      member_(pool_),
      engine_(comm) {
  if (layers_.empty()) {
    throw std::invalid_argument("DistKfacOptimizer: no preconditioned layers");
  }
  if (options_.comm_timeout_s > 0.0) {
    // Arm the transport's failure detection; 0 leaves whatever the
    // launcher configured (possibly already armed) untouched.
    comm_.transport().set_timeout(options_.comm_timeout_s);
  }
  const std::size_t L = layers_.size();
  state_.resize(L);
  fresh_a_.resize(L);
  fresh_g_.resize(L);
  agg_grads_.resize(L);
  deltas_.resize(L);
  inverse_holder_.assign(L, -1);

  // Execution-layer profiling tap: every compute node reports its measured
  // duration; factor builds and inverses land in the profiler's per-layer /
  // per-tensor EMA slots (disjoint per task, so no locking — see
  // OnlineProfiler's thread-safety contract).
  executor_.set_observer([this](int id, double seconds) {
    const sched::Task& task = plan_->task(id);
    if (task_listener_) {
      // Reported on the engine clock so the control plane can stitch these
      // compute intervals with the OpRecord comm intervals into one trace.
      const double end_s = engine_.now_s();
      task_listener_(task, end_s - seconds, end_s);
    }
    switch (task.kind) {
      case sched::TaskKind::kFactorCompute:
        if (task.family == sched::Family::kA) {
          profiler_.record_factor_a(task.layer, seconds);
        } else {
          profiler_.record_factor_g(task.layer, seconds);
        }
        break;
      case sched::TaskKind::kInverse:
        profiler_.record_inverse(task.tensor, seconds);
        break;
      default:
        break;  // the Eq. (13) tasks are not a profiled quantity
    }
  });

  // Collective completions flow back into the dataflow: unpack/average on
  // the pool, then retire the plan node so successors (inverses, the
  // update) release.  The execution record also feeds the profiler's
  // per-op collective aggregates.  Out-of-plan traffic (profile sync) is
  // waited inline by its submitter and carries no node.
  engine_.set_completion_listener([this](const comm::OpRecord& rec) {
    if (rec.plan_task < 0) return;
    if (rec.failed) {
      // A dead peer broke this collective (or poisoned the engine before
      // it ran).  Poison the dataflow so step()'s wait() unblocks and
      // rethrows instead of waiting for successors that can never fire.
      executor_.abort(engine_.error());
      return;
    }
    profiler_.record_collective(rec.elements, rec.duration_s());
    const int id = rec.plan_task;
    pool_.submit([this, id] {
      postprocess_collective(id);
      executor_.complete(id);
    });
  });
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

void DistKfacOptimizer::sync_profile() {
  if (comm_.size() == 1) return;
  std::vector<double> buffer = profiler_.packed();
  engine_
      .all_reduce_async(buffer, comm::ReduceOp::kAverage, "profile-sync",
                        collective_algo(buffer.size()))
      .wait();
  profiler_.load_packed(buffer);
}

void DistKfacOptimizer::refresh_planning_profile(bool measured_fusion) {
  ++replan_count_;
  // A fixed profile is a one-entry trajectory: every epoch plans from it.
  const std::span<const sched::PassTiming> traj =
      options_.profile.empty()
          ? std::span<const sched::PassTiming>(options_.profile_trajectory)
          : std::span<const sched::PassTiming>(&options_.profile, 1);
  sched::PassTiming timing;
  if (!traj.empty()) {
    timing = traj[std::min(replan_epoch_, traj.size() - 1)];
    profiled_timing_ = true;
  } else {
    // Live mode: rank-average the profile when it steers fusion decisions
    // (a rank-divergent fusion plan would make the collectives mismatch;
    // plans whose structure ignores the timing magnitudes — bulk/naive
    // factor comm — stay rank-identical from local values, because the
    // pass walk's event *order* is shape-determined).
    if (measured_fusion) sync_profile();
    timing = sched::timing_from_profile(profiler_.snapshot());
    if (profiler_.has_factor_samples()) profiled_timing_ = true;
  }
  ++replan_epoch_;
  // The memo holds plans built from the timing in effect, so only a
  // changed timing retires them: a fixed profile or a clamped trajectory
  // entry keeps every plan.
  if (timing != current_timing_) {
    current_timing_ = std::move(timing);
    plan_cache_.clear();
  }
}

std::shared_ptr<const sched::IterationPlan> DistKfacOptimizer::fetch_plan(
    const sched::ScheduleInputs& inputs, const sched::ScheduleOptions& opt) {
  // Every memoized plan was built from current_timing_, so the step kind
  // alone picks it — a pointer install, not a planner run.
  const sched::PlanCache::Key key{opt.factor_update, opt.inverse_update,
                                  opt.factor_comm};
  if (auto hit = plan_cache_.find(key)) return hit;
  return plan_cache_.insert(key, sched::plan_iteration(inputs, opt, costs_));
}

bool DistKfacOptimizer::restored_inverses_missing() {
  double missing = 0.0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const int runs_on = plan_->task(plan_->precondition_tasks[l]).rank;
    if ((runs_on < 0 || runs_on == comm_.rank()) && !holds_inverses(l)) {
      missing = 1.0;
    }
  }
  if (comm_.size() > 1) {
    std::vector<double> flag{missing};
    engine_
        .all_reduce_async(flag, comm::ReduceOp::kMax, "restore-check",
                          collective_algo(1))
        .wait();
    missing = flag[0];
  }
  return missing > 0.0;
}

void DistKfacOptimizer::begin_step() {
  if (failed_) {
    throw std::logic_error(
        "DistKfacOptimizer: a prior step failed; restore a checkpoint into "
        "a freshly launched cluster to continue");
  }
  if (!executor_.idle()) {
    // A previous step was abandoned mid-flight — e.g. a hooked step whose
    // backward hooks never ran threw from step().  Gated nodes of that
    // graph can never retire (the pass events are gone), and peers may
    // hold mismatched collective state; the optimizer cannot be reused.
    throw std::logic_error(
        "DistKfacOptimizer: a previous step was abandoned mid-flight "
        "(incomplete hooked step?); construct a fresh optimizer");
  }
  sched::ScheduleOptions opt;
  static_cast<sched::PlanShape&>(opt) = options_;
  opt.second_order = true;
  opt.factor_update = factors_due();
  opt.inverse_update = step_count_ % options_.inverse_update_freq == 0;
  switch (options_.strategy) {
    case DistStrategy::kDKfac:
      opt.factor_comm = sched::FactorCommMode::kBulk;
      opt.inverse = sched::InverseMode::kLocalAll;
      break;
    case DistStrategy::kMpdKfac:
      opt.factor_comm = sched::FactorCommMode::kBulk;
      opt.inverse = sched::InverseMode::kSeqDist;
      break;
    case DistStrategy::kSpdKfac:
      opt.inverse = sched::InverseMode::kLayerLBP;
      break;
  }

  const bool live = options_.profile.empty() &&
                    options_.profile_trajectory.empty();
  const bool measured_fusion =
      live && opt.factor_comm != sched::FactorCommMode::kBulk &&
      opt.factor_comm != sched::FactorCommMode::kNaive;

  // Re-plan point: the first factor step on or after the armed boundary
  // refreshes the planning profile (sync + EMA snapshot in live mode, the
  // next trajectory entry otherwise).  step_count_ advances in lockstep on
  // every rank, so all ranks re-plan at the same steps.
  if (opt.factor_update && step_count_ >= next_replan_step_) {
    refresh_planning_profile(measured_fusion);
    next_replan_step_ = step_count_ + options_.replan_interval;
  }

  // The Eq. (15) objective needs layer timing; until a re-plan installed a
  // real profile (first factor step in live mode) fall back to layer-wise
  // communication, exactly like the paper's warm-up profiling iterations.
  if (opt.factor_update && measured_fusion && !profiled_timing_ &&
      opt.factor_comm == sched::FactorCommMode::kOptimalFuse) {
    opt.factor_comm = sched::FactorCommMode::kLayerWise;
  }

  sched::ScheduleInputs inputs;
  inputs.world_size = comm_.size();
  inputs.layers.reserve(layers_.size());
  for (const nn::PreconditionedLayer* layer : layers_) {
    sched::LayerShape shape;
    shape.dim_a = layer->dim_a();
    shape.dim_g = layer->dim_g();
    shape.a_elements = tensor::packed_size(layer->dim_a());
    shape.g_elements = tensor::packed_size(layer->dim_g());
    shape.grad_elements = layer->weight_grad().size();
    inputs.layers.push_back(shape);
  }
  inputs.timing = current_timing_;

  plan_ = fetch_plan(inputs, opt);
  if (restore_check_pending_ && !opt.inverse_update &&
      options_.strategy == DistStrategy::kSpdKfac) {
    // A layer's owner keeps its inverses across off-steps; a restored rank
    // may hold another rank's copy instead, so re-invert rather than
    // precondition with inverses this rank never computed.
    if (restored_inverses_missing()) {
      opt.inverse_update = true;
      plan_ = fetch_plan(inputs, opt);
    }
  }
  restore_check_pending_ = false;
  if (!plan_->placement.assignments.empty()) placement_ = plan_->placement;
  if (plan_->inverse_update) {
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      inverse_holder_[l] = plan_->task(plan_->precondition_tasks[l]).rank;
    }
  }

  // -------------------------------------------------------------------
  // Packing layout, straight from the plan.  Size the arena slab, then one
  // walk over the plan's collectives carves each a 64-byte-aligned span
  // (plan order, no per-step allocation or zeroing — every span is fully
  // written before it is read: fused members by their packs, gradient
  // groups by the staged grads, broadcasts by the root's pack or the
  // transport's receive) and hands its producers disjoint member ranges of
  // it in pack order, so concurrent compute tasks write with no
  // coordination.
  //
  // Copies-eliminated accounting vs the seed layout: the per-step
  // zero-fill of every comm buffer, the fused path's dense unpack
  // intermediates (one d x d matrix per fused factor, now folded straight
  // from the packed payload), and the per-step reallocation of aggregated
  // gradients / broadcast inverse matrices.
  // -------------------------------------------------------------------
  std::size_t total = 0;          // slab doubles, aligned per span
  std::size_t codec_scratch = 0;  // largest codec gather/decode need
  for (const sched::Task& task : plan_->tasks) {
    // A ΔW that is not broadcast gets a span of its own.
    if (task.kind == sched::TaskKind::kPrecondition && task.rank < 0) {
      total += BufferArena::aligned(task.elements);
    }
    if (!task.is_collective()) continue;
    total += BufferArena::aligned(task.elements);
    if (task.codec == comm::Codec::kNone) continue;
    codec_scratch = std::max(
        codec_scratch,
        task.kind == sched::TaskKind::kBroadcast
            ? comm::broadcast_scratch_elements(task.codec, task.elements)
            : comm::all_reduce_scratch_elements(task.codec, task.elements,
                                                comm_.size(),
                                                options_.topk_ratio));
  }
  arena_.reset(total + BufferArena::aligned(codec_scratch));

  task_buffer_.assign(plan_->tasks.size(), std::span<double>{});
  grad_slots_.assign(layers_.size(), {});
  arena_saved_bytes_ = 0;
  for (const sched::Task& task : plan_->tasks) {
    if (!task.is_collective()) continue;
    const std::span<double> buffer = arena_.carve(task.elements);
    task_buffer_[static_cast<std::size_t>(task.id)] = buffer;
    if (task.family == sched::Family::kGrad &&
        task.kind == sched::TaskKind::kBroadcast) {
      // A ΔW: the owner's kPrecondition (the only dependency) computes
      // straight into it.
      deltas_[task.layer] = buffer;
      continue;
    }
    arena_saved_bytes_ += buffer.size() * sizeof(double);  // zero-fill
    std::size_t offset = 0;
    for (std::size_t l : task.member_layers) {
      std::size_t n = 0;
      if (task.kind == sched::TaskKind::kFusedAllReduce) {
        const sched::Task& member = plan_->task(factor_task(task.family, l));
        n = member.elements;
        task_buffer_[static_cast<std::size_t>(member.id)] =
            buffer.subspan(offset, n);
        arena_saved_bytes_ +=
            member.dim * member.dim * sizeof(double);  // dense intermediate
      } else {
        n = layers_[l]->weight_grad().size();
        grad_slots_[l] = {buffer.subspan(offset, n), task.id};
        arena_saved_bytes_ += n * sizeof(double);  // agg matrix realloc
      }
      offset += n;
    }
    if (task.kind == sched::TaskKind::kBroadcast) {
      // The owner's CT inverse (the broadcast's only dependency) packs here.
      task_buffer_[static_cast<std::size_t>(task.deps.front())] = buffer;
      arena_saved_bytes_ +=
          task.dim * task.dim * sizeof(double);  // inverse matrix realloc
    }
  }
  for (const int id : plan_->precondition_tasks) {
    const sched::Task& task = plan_->task(id);
    if (task.rank < 0) deltas_[task.layer] = arena_.carve(task.elements);
    // The update used to allocate ΔW and ∇W A^-1 every step.
    arena_saved_bytes_ += 2 * task.elements * sizeof(double);
  }
  codec_scratch_ =
      codec_scratch > 0 ? arena_.carve(codec_scratch) : std::span<double>{};
  if (options_.grad_codec == comm::Codec::kTopK) ensure_grad_residuals();

  backward_events_ = 0;
  executor_.begin(build_nodes(), plan_->collective_order(), pool_);
}

// ---------------------------------------------------------------------------
// Plan -> dataflow translation (node id == plan task id)
// ---------------------------------------------------------------------------

std::vector<exec::DataflowExecutor::Node> DistKfacOptimizer::build_nodes() {
  using Node = exec::DataflowExecutor::Node;
  using NodeKind = exec::DataflowExecutor::NodeKind;
  // Single-worker factor steps have no collectives; the plan's inverse
  // barrier is then just the last G compute (sufficient sequentially), but
  // concurrent inverses must wait for *every* compute's running-average
  // fold.
  const bool local_factors =
      plan_->factor_update && plan_->a_comm.empty() && plan_->g_comm.empty();

  std::vector<Node> nodes(plan_->tasks.size());
  for (std::size_t i = 0; i < plan_->tasks.size(); ++i) {
    const sched::Task& task = plan_->tasks[i];
    const int id = static_cast<int>(i);
    Node& node = nodes[i];
    node.deps = task.deps;
    switch (task.kind) {
      case sched::TaskKind::kFactorCompute:
        node.kind = NodeKind::kCompute;
        node.external_deps = 1;  // released by the layer's pass event
        node.work = [this, id] { run_factor_compute(id); };
        break;
      case sched::TaskKind::kFusedAllReduce: {
        node.kind = NodeKind::kSubmission;
        // The plan records only the last member (enough in pass order);
        // under concurrency every member must have packed before submit.
        const std::vector<int>& computes =
            task.family == sched::Family::kA ? plan_->a_compute
                                             : plan_->g_compute;
        for (std::size_t p = task.first; p <= task.last; ++p) {
          add_dep(node.deps, computes[p]);
        }
        node.work = [this, id] { submit_collective(id); };
        break;
      }
      case sched::TaskKind::kGradAllReduce:
        node.kind = NodeKind::kSubmission;
        // Released at the flush layer's backward event, by which point
        // every member gradient is packed (backward runs deep to shallow).
        node.external_deps = 1;
        node.work = [this, id] { submit_collective(id); };
        break;
      case sched::TaskKind::kInverse: {
        const bool mine = task.rank < 0 || task.rank == comm_.rank();
        node.kind = mine ? NodeKind::kCompute : NodeKind::kNoop;
        if (mine) node.work = [this, id] { run_inverse(id); };
        if (local_factors) {
          for (int c : plan_->a_compute) add_dep(node.deps, c);
          for (int c : plan_->g_compute) add_dep(node.deps, c);
        }
        break;
      }
      case sched::TaskKind::kBroadcast:
        node.kind = NodeKind::kSubmission;
        node.work = [this, id] { submit_collective(id); };
        break;
      case sched::TaskKind::kPrecondition: {
        const bool mine = task.rank < 0 || task.rank == comm_.rank();
        node.kind = mine ? NodeKind::kCompute : NodeKind::kNoop;
        if (mine) node.work = [this, id] { run_precondition(id); };
        // Single worker: no gradient group to wait for; step() stages the
        // local gradients and then releases this gate.
        if (plan_->grad_comm.empty()) node.external_deps = 1;
        break;
      }
      case sched::TaskKind::kApply:
        node.kind = NodeKind::kCompute;
        node.external_deps = 1;  // released by step(): the passes are done
        node.work = [this] { run_apply(); };
        break;
    }
  }
  return nodes;
}

// ---------------------------------------------------------------------------
// Pass events (hooked and post-hoc paths share these, so both release the
// same gates in the same per-layer order)
// ---------------------------------------------------------------------------

void DistKfacOptimizer::handle_forward(std::size_t layer) {
  if (!plan_->factor_update) return;
  executor_.satisfy(plan_->a_compute[layer]);
}

void DistKfacOptimizer::handle_backward_grad(std::size_t layer) {
  const GradSlot& slot = grad_slots_[layer];
  if (slot.span.empty()) return;  // nothing communicated (P == 1)
  const auto grad = layers_[layer]->weight_grad().data();
  std::copy(grad.begin(), grad.end(), slot.span.begin());
  if (layer == plan_->task(slot.task).first) {  // the group's flush layer
    executor_.satisfy(slot.task);
  }
}

void DistKfacOptimizer::handle_backward_factor(std::size_t layer) {
  if (!plan_->factor_update) return;
  executor_.satisfy(plan_->g_compute[layers_.size() - 1 - layer]);
}

// ---------------------------------------------------------------------------
// Dataflow node bodies
// ---------------------------------------------------------------------------

void DistKfacOptimizer::run_factor_compute(int task_id) {
  const sched::Task& task = plan_->task(task_id);
  const std::size_t l = task.layer;
  const bool is_a = task.family == sched::Family::kA;
  // Timing is the executor observer's job: it wraps this body and feeds
  // the measured duration into the profiler's per-layer EMA slot.
  // Built in the layer's persistent buffer: a steady step allocates (and
  // page-faults) no factor-sized matrix.
  Matrix& fresh = is_a ? fresh_a_[l] : fresh_g_[l];
  if (is_a) {
    compute_factor_a(*layers_[l], fresh);
  } else {
    compute_factor_g(*layers_[l], fresh);
  }

  const std::span<double> packed =
      task_buffer_[static_cast<std::size_t>(task_id)];
  if (!packed.empty()) {
    tensor::pack_upper(fresh, packed);
  } else {
    // Single worker: the fresh factor is already the aggregate; fold the
    // running average here so inverse tasks (which depend on every factor
    // compute) read finished state.
    LayerState& st = state_[l];
    update_running_average(is_a ? st.a : st.g, fresh, options_.stat_decay);
  }
}

void DistKfacOptimizer::run_inverse(int task_id) {
  const sched::Task& task = plan_->task(task_id);
  const std::size_t t = task.tensor;
  // Per-tensor damping (identical on every rank: derived from the
  // aggregated factors, which the factor barrier guarantees are final).
  double gamma = options_.damping;
  if (options_.pi_damping) {
    const LayerState& st = state_[t / 2];
    const auto [ga, gg] = factored_damping(st.a, st.g, options_.damping);
    gamma = t % 2 == 0 ? ga : gg;
  }
  // The inverse task stops at the factored form, in the tensor's
  // persistent slot (allocation-free on a steady step); the update solves
  // with it.
  Matrix& slot = cholesky_slot(t);
  tensor::damped_cholesky_into(factor_of(t), gamma, slot);
  const std::span<double> bcast =
      task_buffer_[static_cast<std::size_t>(task_id)];
  if (!bcast.empty()) {
    // CT: the owner packs the triangle from its slot; the broadcast
    // (dependent on this node) ships it and its completion unpacks into
    // the slot on every rank identically (the owner's included, a no-op
    // for a lossless payload).
    tensor::pack_lower(slot, bcast);
  }
}

void DistKfacOptimizer::run_precondition(int task_id) {
  // Eq. (13) as two in-place solves, with the same kernels and k order on
  // whichever rank runs it, so an owner's ΔW is bitwise the one every rank
  // would compute.
  const std::size_t l = plan_->task(task_id).layer;
  const LayerState& st = state_[l];
  const std::span<const double> grad = agg_grads_[l].data();
  std::copy(grad.begin(), grad.end(), deltas_[l].begin());
  tensor::solve_right(st.a_chol, deltas_[l]);
  tensor::solve_left(st.g_chol, deltas_[l]);
}

void DistKfacOptimizer::run_apply() {
  const std::vector<std::span<const double>> deltas(deltas_.begin(),
                                                    deltas_.end());
  const double nu =
      kl_clip_factor(deltas, agg_grads_, options_.lr, options_.kl_clip);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l]->apply_update(deltas[l], options_.lr * nu);
  }
}

void DistKfacOptimizer::submit_collective(int task_id) {
  const sched::Task& task = plan_->task(task_id);
  // The span is an arena slab view — the engine operates on it in place
  // (no staging copy); OpRecord::data lets tests verify exactly that.
  const std::span<double> buffer =
      task_buffer_[static_cast<std::size_t>(task_id)];
  if (task.codec != comm::Codec::kNone) {
    submit_compressed(task, buffer);
  } else if (task.kind == sched::TaskKind::kBroadcast) {
    engine_.broadcast_async(buffer, task.rank, task.label, task.id);
  } else {
    engine_.all_reduce_async(buffer, comm::ReduceOp::kAverage, task.label,
                             task.algo, task.id);
  }
}

void DistKfacOptimizer::ensure_grad_residuals() {
  if (!grad_residuals_.empty()) return;
  const std::size_t L = layers_.size();
  std::size_t total = 0;
  for (const nn::PreconditionedLayer* layer : layers_) {
    total += BufferArena::aligned(layer->weight_grad().size());
  }
  residual_arena_.reset(total);
  grad_residuals_.resize(L);
  for (std::size_t l = 0; l < L; ++l) {
    grad_residuals_[l] = residual_arena_.carve(layers_[l]->weight_grad().size());
    std::fill(grad_residuals_[l].begin(), grad_residuals_[l].end(), 0.0);
  }
}

void DistKfacOptimizer::submit_compressed(const sched::Task& task,
                                          std::span<double> buffer) {
  const comm::Codec codec = task.codec;
  const double ratio = options_.topk_ratio;
  const int id = task.id;
  if (task.kind == sched::TaskKind::kBroadcast) {
    const std::span<double> scratch = codec_scratch_.subspan(
        0, comm::broadcast_scratch_elements(codec, buffer.size()));
    engine_.submit(
        [buffer, codec, root = task.rank, scratch, id](comm::Communicator& c) {
          comm::compressed_broadcast(c, buffer, codec, root, scratch, id);
        },
        task.label, task.elements, id, buffer.data());
    return;
  }
  const std::span<double> scratch = codec_scratch_.subspan(
      0, comm::all_reduce_scratch_elements(codec, buffer.size(), comm_.size(),
                                           ratio));
  if (codec != comm::Codec::kTopK) {
    engine_.submit(
        [buffer, codec, ratio, scratch, id](comm::Communicator& c) {
          comm::compressed_all_reduce(c, buffer, codec,
                                      comm::ReduceOp::kAverage, ratio, scratch,
                                      id);
        },
        task.label, task.elements, id, buffer.data());
    return;
  }
  // Top-k with error feedback, entirely inside the (serial) pump so the
  // selection and the residual update are deterministic: one fused pass
  // re-injects the members' residuals into the group payload and
  // histograms it, and the emit scan writes the local wire block and banks
  // residual' = u with the shipped positions zeroed straight into each
  // member's span (per layer — groups reshape across re-plans, layers do
  // not); then the encoded all-reduce runs over the exact block just
  // produced.  `members` lives in *plan_, which begin_step replaces only
  // once this step has drained.
  engine_.submit(
      [this, &members = task.member_layers, buffer, ratio, scratch,
       id](comm::Communicator& c) {
        topk_banks_.clear();
        for (const std::size_t l : members) {
          topk_banks_.push_back(grad_residuals_[l]);
        }
        const std::size_t w =
            comm::wire_elements(comm::Codec::kTopK, buffer.size(), ratio);
        comm::topk_feedback_encode(
            buffer, topk_banks_,
            scratch.subspan(static_cast<std::size_t>(c.rank()) * w, w), ratio);
        comm::all_reduce_encoded(c, buffer, comm::Codec::kTopK,
                                 comm::ReduceOp::kAverage, ratio, scratch, id);
      },
      task.label, task.elements, id, buffer.data());
}

void DistKfacOptimizer::postprocess_collective(int task_id) {
  const sched::Task& task = plan_->task(task_id);
  switch (task.kind) {
    case sched::TaskKind::kFusedAllReduce: {
      // Fold each packed member straight from the slab into the dense EMA
      // state — no dense unpack intermediate.  Bitwise identical to
      // unpack + update_running_average: the pre-fold state is exactly
      // symmetric (constructed by unpack, preserved by the elementwise
      // EMA), so mirroring the lower triangle from the freshly folded
      // upper one reproduces the direct per-element fold.
      const auto& kt = tensor::kernels::active_table();
      for (std::size_t l : task.member_layers) {
        const sched::Task& member = plan_->task(factor_task(task.family, l));
        const std::size_t d = member.dim;
        LayerState& st = state_[l];
        Matrix& state = task.family == sched::Family::kA ? st.a : st.g;
        const bool init = state.empty();
        if (init) state = Matrix(d, d);
        kt.ema_unpack(task_buffer_[static_cast<std::size_t>(member.id)].data(),
                      d, state.data().data(), d, options_.stat_decay, init);
      }
      break;
    }
    case sched::TaskKind::kGradAllReduce: {
      for (std::size_t l : task.member_layers) {
        const Matrix& grad = layers_[l]->weight_grad();
        Matrix& agg = agg_grads_[l];
        if (agg.rows() != grad.rows() || agg.cols() != grad.cols()) {
          agg = Matrix(grad.rows(), grad.cols());  // first step / reshape
        }
        const std::span<const double> reduced = grad_slots_[l].span;
        std::copy(reduced.begin(), reduced.end(), agg.data().begin());
      }
      break;
    }
    case sched::TaskKind::kBroadcast: {
      if (task.family == sched::Family::kGrad) break;  // ΔW landed in place
      Matrix& slot = cholesky_slot(task.tensor);
      if (slot.rows() != task.dim || slot.cols() != task.dim) {
        slot = Matrix(task.dim, task.dim);  // first step / reshape
      }
      tensor::unpack_lower(task_buffer_[static_cast<std::size_t>(task_id)],
                           slot);
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Hook mode (Fig. 6): the dataflow released inline with the passes
// ---------------------------------------------------------------------------

nn::PassHooks DistKfacOptimizer::pass_hooks() {
  nn::PassHooks hooks;
  hooks.after_forward = [this](std::size_t l, nn::PreconditionedLayer&) {
    // Successive hook timestamps profile the pass kernels: the gap between
    // after_forward(l-1) and after_forward(l) is layer l's forward kernel
    // (the factor builds run asynchronously on the pool, so they do not
    // sit inside the gap).  Layer 0 has no predecessor event — its slot
    // stays unsampled.
    if (l == 0) {
      hooked_active_ = true;
      begin_step();
    } else {
      profiler_.record_forward(
          l, std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           last_pass_event_)
                 .count());
    }
    last_pass_event_ = std::chrono::steady_clock::now();
    handle_forward(l);
  };
  hooks.after_backward = [this](std::size_t l, nn::PreconditionedLayer&) {
    // Same gap profiling for the backward kernels; the first backward
    // event's gap spans the loss computation, so it is skipped.
    const auto now = std::chrono::steady_clock::now();
    if (backward_events_ > 0) {
      profiler_.record_backward(
          l, std::chrono::duration<double>(now - last_pass_event_).count());
    }
    last_pass_event_ = now;
    // The plan orders each layer's gradient flush before its G-factor
    // release (the gradient is ready the moment the backward kernel ends,
    // the factor only after its own computation).
    handle_backward_grad(l);
    handle_backward_factor(l);
    ++backward_events_;
  };
  return hooks;
}

// ---------------------------------------------------------------------------
// Step: release the remaining gates and drain the dataflow
// ---------------------------------------------------------------------------

void DistKfacOptimizer::step() {
  try {
    step_body();
  } catch (...) {
    // A peer died mid-step, or a task threw (a non-SPD factor).  Quiesce
    // the engine (queued ops complete, or fail fast against its poisoned
    // state — never throws) so no pump work runs after the caller observes
    // the failure, then refuse further steps: the plan was abandoned
    // mid-flight, and the ranks' collective state may have diverged.
    failed_ = true;
    engine_.wait_all();
    throw;
  }
}

void DistKfacOptimizer::step_body() {
  const std::size_t L = layers_.size();
  if (hooked_active_) {
    // Hooked step: the passes already released the in-pass gates; verify
    // completeness before opening the update gate.
    if (backward_events_ != L) {
      throw std::logic_error(
          "DistKfacOptimizer: hooked step incomplete — pass_hooks() must be "
          "given to both forward() and backward() of the same step");
    }
    hooked_active_ = false;
  } else {
    // Post-hoc step: replay the identical per-layer event sequence.
    begin_step();
    for (std::size_t l = 0; l < L; ++l) handle_forward(l);
    for (std::size_t i = 0; i < L; ++i) {
      const std::size_t l = L - 1 - i;
      handle_backward_grad(l);
      handle_backward_factor(l);
    }
  }

  // Single-worker steps communicate nothing: the local gradients are the
  // aggregates.  Staged before the preconditioning gates open.
  if (plan_->grad_comm.empty()) {
    for (std::size_t l = 0; l < L; ++l) {
      agg_grads_[l] = layers_[l]->weight_grad();
      executor_.satisfy(plan_->precondition_tasks[l]);
    }
  }
  if (plan_->apply_task >= 0) executor_.satisfy(plan_->apply_task);
  executor_.wait();

  ++step_count_;
}

}  // namespace spdkfac::core
