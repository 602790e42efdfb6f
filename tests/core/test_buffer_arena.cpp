// BufferArena unit tests plus the zero-copy contract of the optimizer's
// communication path: every plan collective's OpRecord::data must point
// into the rank's arena slab (the engine operated in place, no staging
// copy), the slab must stop reallocating once the plan is steady, the
// carve layout must hand out 64-byte-aligned spans, and the layout must be
// exactly the one the plan prescribes: one span per collective, disjoint
// within a step, with the copies-eliminated figure in closed form.
#include "core/buffer_arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "comm/codec.hpp"
#include "comm/cluster.hpp"
#include "core/dist_kfac.hpp"
#include "nn/data.hpp"
#include "tensor/matrix.hpp"

namespace spdkfac::core {
namespace {

bool aligned64(const double* p) {
  return reinterpret_cast<std::uintptr_t>(p) % BufferArena::kAlignBytes == 0;
}

TEST(BufferArena, AlignedRoundsUpToQuantum) {
  EXPECT_EQ(BufferArena::aligned(0), 0u);
  EXPECT_EQ(BufferArena::aligned(1), 8u);
  EXPECT_EQ(BufferArena::aligned(8), 8u);
  EXPECT_EQ(BufferArena::aligned(9), 16u);
  EXPECT_EQ(BufferArena::aligned(64), 64u);
}

TEST(BufferArena, EveryCarveIs64ByteAligned) {
  BufferArena arena;
  arena.reset(BufferArena::aligned(3) + BufferArena::aligned(17) +
              BufferArena::aligned(8));
  for (std::size_t n : {std::size_t{3}, std::size_t{17}, std::size_t{8}}) {
    auto span = arena.carve(n);
    EXPECT_EQ(span.size(), n);
    EXPECT_TRUE(aligned64(span.data()));
  }
}

TEST(BufferArena, GrowOnlyAndAddressStableWhenCapacitySuffices) {
  BufferArena arena;
  arena.reset(64);
  const double* base = arena.carve(64).data();
  EXPECT_EQ(arena.rebuilds(), 1u);

  // Smaller or equal layouts reuse the slab: same base address, no rebuild.
  arena.reset(32);
  EXPECT_EQ(arena.carve(32).data(), base);
  EXPECT_EQ(arena.rebuilds(), 1u);
  arena.reset(64);
  EXPECT_EQ(arena.carve(16).data(), base);
  EXPECT_EQ(arena.rebuilds(), 1u);

  // Growing reallocates (exactly once).
  arena.reset(1024);
  EXPECT_EQ(arena.rebuilds(), 2u);
  EXPECT_GE(arena.capacity_doubles(), 1024u);
}

TEST(BufferArena, CarvePastCapacityThrows) {
  BufferArena arena;
  arena.reset(16);
  arena.carve(16);
  EXPECT_THROW(arena.carve(1), std::logic_error);
}

TEST(BufferArena, ContainsTracksSlab) {
  BufferArena arena;
  EXPECT_FALSE(arena.contains(nullptr));
  arena.reset(32);
  auto span = arena.carve(32);
  EXPECT_TRUE(arena.contains(span.data()));
  EXPECT_TRUE(arena.contains(span.data() + span.size() - 1));
  double outside = 0.0;
  EXPECT_FALSE(arena.contains(&outside));
}

// ---------------------------------------------------------------------------
// Zero-copy contract on a live optimizer.

constexpr std::size_t kIn = 6, kHidden = 10, kClasses = 3;

void run_pass(nn::Sequential& model, const nn::SyntheticClassification& data,
              tensor::Rng& rng) {
  auto b = data.sample(8, rng);
  nn::Tensor4D flat(b.inputs.n, kIn, 1, 1);
  flat.data = b.inputs.data;
  nn::SoftmaxCrossEntropy loss;
  loss.forward(model.forward(flat), b.labels);
  model.backward(loss.backward());
}

struct ArenaObservation {
  std::vector<comm::OpRecord> records;
  std::size_t rebuilds = 0;
  std::size_t capacity = 0;
  std::size_t bytes_saved = 0;
  bool all_plan_records_in_arena = true;
  // The last step's layout, observed and as derived from its plan.
  std::size_t carved = 0, expected_carved = 0;
  std::size_t expected_bytes_saved = 0;
  std::size_t last_step_plan_records = 0, plan_collectives = 0;
  bool last_step_ranges_disjoint = true;
};

/// Doubles the optimizer must carve for `plan`: every collective's payload
/// and every ΔW that is not a broadcast payload, 64-byte aligned, plus the
/// largest codec gather/decode scratch.
std::size_t expected_carved(const sched::IterationPlan& plan,
                            const DistKfacOptions& opts) {
  std::size_t total = 0, scratch = 0;
  for (const sched::Task& t : plan.tasks) {
    if (t.kind == sched::TaskKind::kPrecondition && t.rank < 0) {
      total += BufferArena::aligned(t.elements);
    }
    if (!t.is_collective()) continue;
    total += BufferArena::aligned(t.elements);
    if (t.codec == comm::Codec::kNone) continue;
    scratch = std::max(scratch, comm::all_reduce_scratch_elements(
                                    t.codec, t.elements, plan.world_size,
                                    opts.topk_ratio));
  }
  return total + BufferArena::aligned(scratch);
}

/// arena_bytes_saved_per_step() in closed form: the payload bytes (but a
/// ΔW's, which no earlier layout zero-filled), plus a d x d dense
/// intermediate per fused factor member, plus the gradient bytes per
/// gradient-group member, plus a dim x dim matrix per inverse broadcast,
/// plus a ΔW and a ∇W A^-1 per layer.
std::size_t expected_saved(const sched::IterationPlan& plan,
                           const std::vector<nn::PreconditionedLayer*>& layers) {
  std::size_t bytes = 0;
  for (const sched::Task& t : plan.tasks) {
    if (t.kind == sched::TaskKind::kPrecondition) {
      bytes += 2 * t.elements * sizeof(double);
    }
    const bool delta = t.kind == sched::TaskKind::kBroadcast &&
                       t.family == sched::Family::kGrad;
    if (!t.is_collective() || delta) continue;
    bytes += t.elements * sizeof(double);
    for (std::size_t l : t.member_layers) {
      if (t.kind == sched::TaskKind::kFusedAllReduce) {
        const std::size_t d = t.family == sched::Family::kA
                                  ? layers[l]->dim_a()
                                  : layers[l]->dim_g();
        bytes += d * d * sizeof(double);
      } else {
        bytes += layers[l]->weight_grad().size() * sizeof(double);
      }
    }
    if (t.kind == sched::TaskKind::kBroadcast) {
      bytes += t.dim * t.dim * sizeof(double);
    }
  }
  return bytes;
}

/// Whether no two plan-tagged records' [data, data + elements) overlap.
bool plan_ranges_disjoint(std::vector<comm::OpRecord> records) {
  std::erase_if(records,
                [](const comm::OpRecord& r) { return r.plan_task < 0; });
  std::sort(records.begin(), records.end(),
            [](const comm::OpRecord& x, const comm::OpRecord& y) {
              return x.data < y.data;
            });
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i - 1].data + records[i - 1].elements > records[i].data) {
      return false;
    }
  }
  return true;
}

ArenaObservation observe_rank0(DistStrategy strategy, int world, int steps,
                               comm::Codec grad_codec = comm::Codec::kNone) {
  ArenaObservation obs;
  comm::Cluster::launch(world, [&](comm::Communicator& comm) {
    tensor::Rng rng(4242);
    const std::size_t widths[] = {kIn, kHidden, kClasses};
    nn::Sequential model = nn::make_mlp(widths, rng);
    auto layers = model.preconditioned_layers();
    DistKfacOptions opts;
    opts.strategy = strategy;
    opts.lr = 0.1;
    opts.damping = 0.1;
    opts.stat_decay = 0.5;
    opts.grad_codec = grad_codec;
    DistKfacOptimizer optimizer(layers, comm, opts);

    nn::SyntheticClassification data(kClasses, kIn, 1, 99);
    tensor::Rng shard_rng(1000 + comm.rank());
    std::size_t before_last_step = 0;
    for (int s = 0; s < steps; ++s) {
      before_last_step = optimizer.comm_records().size();
      run_pass(model, data, shard_rng);
      optimizer.step();
    }
    if (comm.rank() == 0) {
      obs.records = optimizer.comm_records();
      const std::vector<comm::OpRecord> last_step(
          obs.records.begin() +
              static_cast<std::ptrdiff_t>(before_last_step),
          obs.records.end());
      for (const auto& rec : last_step) {
        if (rec.plan_task >= 0) ++obs.last_step_plan_records;
      }
      obs.last_step_ranges_disjoint = plan_ranges_disjoint(last_step);
      obs.plan_collectives = optimizer.plan().num_collectives();
      obs.carved = optimizer.arena().carved_doubles();
      obs.expected_carved = expected_carved(optimizer.plan(), opts);
      obs.expected_bytes_saved = expected_saved(optimizer.plan(), layers);
      obs.rebuilds = optimizer.arena().rebuilds();
      obs.capacity = optimizer.arena().capacity_doubles();
      obs.bytes_saved = optimizer.arena_bytes_saved_per_step();
      for (const auto& rec : obs.records) {
        if (rec.plan_task >= 0 &&
            !optimizer.arena().contains(rec.data)) {
          obs.all_plan_records_in_arena = false;
        }
      }
    }
  });
  return obs;
}

TEST(ArenaZeroCopy, PlanCollectivesSubmitArenaSpans) {
  const auto obs = observe_rank0(DistStrategy::kSpdKfac, 2, 3);
  // A 2-layer MLP on 2 workers must communicate: factors, grads, inverses.
  std::size_t plan_records = 0;
  for (const auto& rec : obs.records) {
    if (rec.plan_task >= 0) {
      ++plan_records;
      EXPECT_NE(rec.data, nullptr) << rec.name;
    }
  }
  EXPECT_GT(plan_records, 0u);
  EXPECT_TRUE(obs.all_plan_records_in_arena)
      << "some plan collective ran on a non-arena staging buffer";
}

TEST(ArenaZeroCopy, SlabStopsGrowingOnSteadyPlan) {
  const auto obs = observe_rank0(DistStrategy::kSpdKfac, 2, 4);
  EXPECT_GT(obs.capacity, 0u);
  // The packing layout is a pure function of the plan; re-planning epochs
  // may grow it a handful of times early, but 4 steps of a toy model must
  // not rebuild the slab once per step.
  EXPECT_LE(obs.rebuilds, 3u);
}

TEST(ArenaZeroCopy, ReportsBytesSavedWhenCommunicating) {
  const auto obs = observe_rank0(DistStrategy::kSpdKfac, 2, 2);
  EXPECT_GT(obs.bytes_saved, 0u);
}

TEST(ArenaZeroCopy, OtherStrategiesAlsoRunOnArena) {
  for (DistStrategy s : {DistStrategy::kDKfac, DistStrategy::kMpdKfac}) {
    const auto obs = observe_rank0(s, 2, 2);
    EXPECT_TRUE(obs.all_plan_records_in_arena) << static_cast<int>(s);
  }
}

void expect_plan_layout(const ArenaObservation& obs) {
  EXPECT_EQ(obs.carved, obs.expected_carved);
  EXPECT_EQ(obs.bytes_saved, obs.expected_bytes_saved);
  EXPECT_EQ(obs.last_step_plan_records, obs.plan_collectives);
  EXPECT_TRUE(obs.last_step_ranges_disjoint)
      << "two collectives of one step share slab memory";
}

TEST(ArenaZeroCopy, LayoutIsExactlyThePlansForEveryStrategyAndWorldSize) {
  for (DistStrategy s : {DistStrategy::kDKfac, DistStrategy::kMpdKfac,
                         DistStrategy::kSpdKfac}) {
    for (int world : {1, 2, 4}) {
      SCOPED_TRACE(std::string(to_string(s)) + " P=" + std::to_string(world));
      expect_plan_layout(observe_rank0(s, world, 3));
    }
  }
}

TEST(ArenaZeroCopy, TopKLayoutIsExactlyThePlans) {
  const auto obs =
      observe_rank0(DistStrategy::kSpdKfac, 2, 3, comm::Codec::kTopK);
  EXPECT_GT(obs.carved, 0u);
  expect_plan_layout(obs);
}

TEST(ArenaZeroCopy, SingleWorkerStillSteps) {
  // P=1 plans communicate little or nothing; the arena path must degrade
  // cleanly and any plan-tagged traffic must still run on the slab.
  const auto obs = observe_rank0(DistStrategy::kSpdKfac, 1, 2);
  EXPECT_TRUE(obs.all_plan_records_in_arena);
}

}  // namespace
}  // namespace spdkfac::core
