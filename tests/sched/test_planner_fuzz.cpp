// Property/fuzz coverage of the schedule planner: seeded random layer
// shapes × schedule options × world sizes, with structural invariants that
// every legal plan must satisfy regardless of the sampled inputs:
//
//   * the task graph is acyclic (deps strictly precede their task — the
//     builder appends in topological order, so this is id-ordering);
//   * every planned phase covers its domain exactly once (each layer has
//     one A/G compute, appears in exactly one fused group per family and
//     exactly one WFBP gradient group; each tensor has one inverse);
//   * gradient fusion honors the threshold (Eq. (15)'s Horovod-side
//     counterpart): groups flush at >= threshold, are minimal (dropping
//     the flush member would leave them under it), and only the layer-0
//     group may close under threshold;
//   * the canonical collective order is total — a permutation of all
//     all-reduce tasks, non-decreasing in planner readiness, with the
//     broadcasts trailing;
//   * inverse placement is complete and well-typed (owners in range, CT
//     broadcasts rooted at their owner, NCTs replicated);
//   * planning is deterministic: two builds from equal inputs serialize
//     byte-identically — which is exactly why distributed ranks (which
//     feed the planner the same synced profile) always agree on the
//     schedule.
//
// The RNG is seeded, so a failure reproduces by case index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "comm/topology.hpp"
#include "perf/models.hpp"
#include "sched/plan_cache.hpp"
#include "sched/planner.hpp"
#include "sched/serialize.hpp"
#include "tensor/symmetric.hpp"

namespace spdkfac::sched {
namespace {

constexpr std::uint64_t kSeed = 0x5bdf0c1ull;

struct FuzzCase {
  ScheduleInputs inputs;
  ScheduleOptions options;
  int world = 1;
};

FuzzCase sample_case(std::mt19937_64& rng) {
  FuzzCase fc;
  std::uniform_int_distribution<std::size_t> layer_count(1, 9);
  std::uniform_int_distribution<std::size_t> dim(1, 64);
  const std::size_t L = layer_count(rng);
  for (std::size_t l = 0; l < L; ++l) {
    LayerShape shape;
    shape.dim_a = dim(rng);
    shape.dim_g = dim(rng);
    shape.a_elements = tensor::packed_size(shape.dim_a);
    shape.g_elements = tensor::packed_size(shape.dim_g);
    shape.grad_elements = shape.dim_a * shape.dim_g;
    fc.inputs.layers.push_back(shape);
  }

  const int worlds[] = {1, 2, 3, 4, 8};
  fc.world = worlds[std::uniform_int_distribution<int>(0, 4)(rng)];
  fc.inputs.world_size = fc.world;

  // Random monotone pass walk (the planner's only timing requirement).
  std::uniform_real_distribution<double> gap(1e-6, 5e-3);
  PassTiming& t = fc.inputs.timing;
  t.a_ready.resize(L);
  t.g_ready.resize(L);
  t.grad_ready.resize(L);
  double clock = 0.0;
  for (std::size_t l = 0; l < L; ++l) {
    clock += gap(rng);
    t.a_ready[l] = clock;
    clock += gap(rng);
  }
  for (std::size_t i = 0; i < L; ++i) {
    clock += gap(rng);
    t.grad_ready[L - 1 - i] = clock;
    clock += gap(rng);
    t.g_ready[i] = clock;
  }
  t.backward_end = clock;

  ScheduleOptions& opt = fc.options;
  opt.second_order = std::uniform_int_distribution<int>(0, 9)(rng) > 0;
  opt.factor_update = std::uniform_int_distribution<int>(0, 3)(rng) > 0;
  opt.inverse_update = std::uniform_int_distribution<int>(0, 3)(rng) > 0;
  const FactorCommMode modes[] = {
      FactorCommMode::kBulk, FactorCommMode::kNaive,
      FactorCommMode::kLayerWise, FactorCommMode::kThresholdFuse,
      FactorCommMode::kOptimalFuse};
  opt.factor_comm = modes[std::uniform_int_distribution<int>(0, 4)(rng)];
  const InverseMode inv[] = {InverseMode::kLocalAll, InverseMode::kSeqDist,
                             InverseMode::kLBP, InverseMode::kLayerLBP};
  opt.inverse = inv[std::uniform_int_distribution<int>(0, 3)(rng)];
  const comm::AllReduceAlgo algos[] = {comm::AllReduceAlgo::kRing,
                                       comm::AllReduceAlgo::kAuto,
                                       comm::AllReduceAlgo::kHalvingDoubling};
  opt.collective_algo = algos[std::uniform_int_distribution<int>(0, 2)(rng)];
  const std::size_t thresholds[] = {0, 50, 500, 1u << 24};
  opt.grad_fusion_threshold =
      thresholds[std::uniform_int_distribution<int>(0, 3)(rng)];
  return fc;
}

ScheduleCosts costs_for(int world) {
  return costs_from(
      perf::ClusterCalibration::for_topology(comm::Topology::flat(world)));
}

/// Asserts every structural invariant on one plan.
void check_invariants(const IterationPlan& plan, const FuzzCase& fc,
                      const std::string& ctx) {
  const std::size_t L = fc.inputs.layers.size();

  // --- Graph shape: ids are indices, deps strictly precede (acyclic). ---
  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    const Task& task = plan.tasks[i];
    ASSERT_EQ(task.id, static_cast<int>(i)) << ctx;
    for (int d : task.deps) {
      ASSERT_GE(d, 0) << ctx;
      ASSERT_LT(d, task.id) << ctx << ": dep must precede its task";
    }
  }

  // --- Factor-compute coverage: each layer exactly once per family. ---
  if (plan.factor_update) {
    ASSERT_EQ(plan.a_compute.size(), L) << ctx;
    ASSERT_EQ(plan.g_compute.size(), L) << ctx;
    for (std::size_t l = 0; l < L; ++l) {
      const Task& a = plan.task(plan.a_compute[l]);
      EXPECT_EQ(a.kind, TaskKind::kFactorCompute) << ctx;
      EXPECT_EQ(a.family, Family::kA) << ctx;
      EXPECT_EQ(a.layer, l) << ctx;
      const Task& g = plan.task(plan.g_compute[l]);
      EXPECT_EQ(g.family, Family::kG) << ctx;
      EXPECT_EQ(g.layer, L - 1 - l) << ctx << ": G pass is deepest-first";
    }
  } else {
    EXPECT_TRUE(plan.a_compute.empty()) << ctx;
    EXPECT_TRUE(plan.g_compute.empty()) << ctx;
  }

  // --- Fused factor groups partition the pass (each member once). ---
  const auto check_family = [&](const std::vector<int>& comm_tasks,
                                Family family) {
    std::multiset<std::size_t> members;
    std::size_t elements = 0;
    for (int id : comm_tasks) {
      const Task& task = plan.task(id);
      EXPECT_EQ(task.kind, TaskKind::kFusedAllReduce) << ctx;
      EXPECT_EQ(task.family, family) << ctx;
      EXPECT_EQ(task.member_layers.size(), task.last - task.first + 1) << ctx;
      members.insert(task.member_layers.begin(), task.member_layers.end());
      elements += task.elements;
      std::size_t expect = 0;
      for (std::size_t l : task.member_layers) {
        expect += family == Family::kA ? fc.inputs.layers[l].a_elements
                                       : fc.inputs.layers[l].g_elements;
      }
      EXPECT_EQ(task.elements, expect) << ctx << ": group payload mismatch";
    }
    if (plan.factor_update && fc.world > 1) {
      ASSERT_EQ(members.size(), L) << ctx;
      for (std::size_t l = 0; l < L; ++l) {
        EXPECT_EQ(members.count(l), 1u) << ctx << " layer " << l;
      }
      EXPECT_GT(elements, 0u) << ctx;
    } else {
      EXPECT_TRUE(comm_tasks.empty()) << ctx;
    }
  };
  check_family(plan.a_comm, Family::kA);
  check_family(plan.g_comm, Family::kG);

  // --- WFBP gradient groups: full cover, threshold-honoring, minimal. ---
  if (fc.world > 1) {
    std::multiset<std::size_t> covered;
    ASSERT_EQ(plan.grad_comm.size(), plan.grad_groups.size()) << ctx;
    for (std::size_t gi = 0; gi < plan.grad_comm.size(); ++gi) {
      const Task& task = plan.task(plan.grad_comm[gi]);
      EXPECT_EQ(task.kind, TaskKind::kGradAllReduce) << ctx;
      EXPECT_EQ(task.member_layers, plan.grad_groups[gi]) << ctx;
      covered.insert(task.member_layers.begin(), task.member_layers.end());
      std::size_t acc = 0;
      for (std::size_t l : task.member_layers) {
        acc += fc.inputs.layers[l].grad_elements;
      }
      EXPECT_EQ(task.elements, acc) << ctx;
      // Pack order is deepest-first; the flush member is the shallowest.
      EXPECT_EQ(task.member_layers.back(), task.first) << ctx;
      EXPECT_EQ(task.member_layers.front(), task.last) << ctx;
      const bool contains_layer0 = task.first == 0;
      if (!contains_layer0) {
        EXPECT_GE(acc, fc.options.grad_fusion_threshold)
            << ctx << ": only the layer-0 group may flush under threshold";
      }
      if (task.member_layers.size() > 1 && acc >= fc.options.grad_fusion_threshold) {
        const std::size_t without_flush =
            acc - fc.inputs.layers[task.first].grad_elements;
        EXPECT_LT(without_flush, fc.options.grad_fusion_threshold)
            << ctx << ": group must flush the moment it crosses the "
                      "threshold (minimality)";
      }
    }
    ASSERT_EQ(covered.size(), L) << ctx;
    for (std::size_t l = 0; l < L; ++l) {
      EXPECT_EQ(covered.count(l), 1u) << ctx << " grad layer " << l;
    }
  } else {
    EXPECT_TRUE(plan.grad_comm.empty()) << ctx;
  }

  // --- Canonical collective order: total, readiness-sorted, broadcasts
  // trailing. ---
  std::vector<int> all_reduces = plan.grad_comm;
  all_reduces.insert(all_reduces.end(), plan.a_comm.begin(),
                     plan.a_comm.end());
  all_reduces.insert(all_reduces.end(), plan.g_comm.begin(),
                     plan.g_comm.end());
  std::vector<int> sorted_order = plan.comm_order;
  std::sort(sorted_order.begin(), sorted_order.end());
  std::sort(all_reduces.begin(), all_reduces.end());
  EXPECT_EQ(sorted_order, all_reduces)
      << ctx << ": comm_order must be a permutation of every all-reduce";
  for (std::size_t i = 1; i < plan.comm_order.size(); ++i) {
    EXPECT_LE(plan.task(plan.comm_order[i - 1]).ready,
              plan.task(plan.comm_order[i]).ready)
        << ctx << ": submission order must follow readiness";
  }
  std::vector<int> canonical = plan.comm_order;
  canonical.insert(canonical.end(), plan.broadcast_tasks.begin(),
                   plan.broadcast_tasks.end());
  EXPECT_EQ(plan.collective_order(), canonical) << ctx;
  EXPECT_EQ(plan.num_collectives(), canonical.size()) << ctx;

  // --- Inverse phase: every tensor exactly once, well-typed placement. ---
  if (plan.inverse_update) {
    std::multiset<std::size_t> tensors;
    std::size_t ct_count = 0;
    for (int id : plan.inverse_tasks) {
      const Task& task = plan.task(id);
      EXPECT_EQ(task.kind, TaskKind::kInverse) << ctx;
      tensors.insert(task.tensor);
      if (task.rank >= 0) {
        EXPECT_LT(task.rank, fc.world) << ctx;
        ++ct_count;
      }
      EXPECT_EQ(task.rank, plan.placement.assignments[task.tensor].owner)
          << ctx;
      EXPECT_EQ(task.rank < 0,
                plan.placement.assignments[task.tensor].nct)
          << ctx;
    }
    ASSERT_EQ(tensors.size(), 2 * L) << ctx;
    for (std::size_t t = 0; t < 2 * L; ++t) {
      EXPECT_EQ(tensors.count(t), 1u) << ctx << " tensor " << t;
    }
    // One broadcast per CT of a layer nobody owns, rooted at the owner,
    // and one ΔW broadcast per owned layer, rooted at the layer's owner
    // (multi-worker only).
    std::size_t owned_cts = 0, owned_layers = 0;
    for (std::size_t l = 0; l < L; ++l) {
      if (!plan.placement.owned(l)) continue;
      ++owned_layers;
      owned_cts += 2;
      for (const std::size_t t : {2 * l, 2 * l + 1}) {
        EXPECT_EQ(plan.placement.assignments[t].owner,
                  plan.placement.layer_owner[l])
            << ctx << ": an owned layer's inverses run on its owner";
      }
    }
    if (fc.options.inverse != InverseMode::kLayerLBP) {
      EXPECT_TRUE(plan.placement.layer_owner.empty()) << ctx;
    }
    if (fc.world > 1) {
      ASSERT_EQ(plan.broadcast_tasks.size(),
                ct_count - owned_cts + owned_layers)
          << ctx;
      for (int id : plan.broadcast_tasks) {
        const Task& bc = plan.task(id);
        EXPECT_EQ(bc.kind, TaskKind::kBroadcast) << ctx;
        ASSERT_EQ(bc.deps.size(), 1u) << ctx;
        if (bc.family == Family::kGrad) {
          EXPECT_EQ(bc.rank, plan.placement.layer_owner[bc.layer])
              << ctx << ": ΔW must be rooted at the layer's owner";
          EXPECT_EQ(bc.deps[0], plan.precondition_tasks[bc.layer]) << ctx;
          EXPECT_EQ(bc.elements, fc.inputs.layers[bc.layer].grad_elements)
              << ctx;
          continue;
        }
        EXPECT_FALSE(plan.placement.owned(bc.tensor / 2)) << ctx;
        EXPECT_EQ(bc.rank, plan.placement.assignments[bc.tensor].owner)
            << ctx << ": broadcast must be rooted at the inverse owner";
        EXPECT_EQ(plan.task(bc.deps[0]).tensor, bc.tensor) << ctx;
      }
    } else {
      EXPECT_TRUE(plan.broadcast_tasks.empty()) << ctx;
    }
  } else {
    EXPECT_TRUE(plan.inverse_tasks.empty()) << ctx;
    for (int id : plan.broadcast_tasks) {
      EXPECT_EQ(plan.task(id).family, Family::kGrad)
          << ctx << ": off-steps broadcast ΔW only";
    }
  }

  // --- Eq. (13): one precondition per layer, then the apply — last and
  // gated, at least transitively, on everything. ---
  if (fc.options.second_order) {
    ASSERT_EQ(plan.precondition_tasks.size(), L) << ctx;
    ASSERT_EQ(plan.apply_task, static_cast<int>(plan.tasks.size()) - 1)
        << ctx;
    std::set<int> reached;
    std::vector<int> stack{plan.apply_task};
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      for (const int dep : plan.task(id).deps) {
        if (reached.insert(dep).second) stack.push_back(dep);
      }
    }
    for (int id : plan.inverse_tasks) EXPECT_TRUE(reached.count(id)) << ctx;
    for (int id : plan.broadcast_tasks) EXPECT_TRUE(reached.count(id)) << ctx;
    for (int id : plan.grad_comm) EXPECT_TRUE(reached.count(id)) << ctx;
    for (std::size_t l = 0; l < L; ++l) {
      const Task& pc = plan.task(plan.precondition_tasks[l]);
      EXPECT_EQ(pc.kind, TaskKind::kPrecondition) << ctx;
      EXPECT_EQ(pc.layer, l) << ctx;
      if (plan.inverse_update) {
        EXPECT_EQ(pc.rank, plan.placement.owned(l)
                               ? plan.placement.layer_owner[l]
                               : -1)
            << ctx;
      }
    }
  } else {
    EXPECT_TRUE(plan.precondition_tasks.empty()) << ctx;
    EXPECT_EQ(plan.apply_task, -1) << ctx;
  }
}

TEST(PlannerFuzz, RandomPlansSatisfyEveryInvariant) {
  std::mt19937_64 rng(kSeed);
  for (int c = 0; c < 60; ++c) {
    const FuzzCase fc = sample_case(rng);
    const ScheduleCosts costs = costs_for(fc.world);
    const std::string ctx =
        "case " + std::to_string(c) + " (L=" +
        std::to_string(fc.inputs.layers.size()) + " P=" +
        std::to_string(fc.world) + " " + to_string(fc.options.factor_comm) +
        "/" + to_string(fc.options.inverse) + ")";
    IterationPlan plan;
    ASSERT_NO_THROW(plan = plan_iteration(fc.inputs, fc.options, costs))
        << ctx;
    check_invariants(plan, fc, ctx);
  }
}

TEST(PlannerFuzz, PlanningIsDeterministicAcrossRebuildsAndRanks) {
  // The planner has no notion of rank: every rank feeds it the same synced
  // inputs and must get the byte-identical schedule.  Serializing two
  // independent builds is the strongest cheap witness of that.
  std::mt19937_64 rng(kSeed ^ 0xfeedull);
  for (int c = 0; c < 20; ++c) {
    const FuzzCase fc = sample_case(rng);
    const ScheduleCosts costs = costs_for(fc.world);
    const IterationPlan first = plan_iteration(fc.inputs, fc.options, costs);
    const IterationPlan second = plan_iteration(fc.inputs, fc.options, costs);
    EXPECT_EQ(plan_to_text(first), plan_to_text(second))
        << "case " << c << ": rebuild produced a different schedule";
  }
}

TEST(PlannerFuzz, SignatureIsStableAndScaleSensitive) {
  std::mt19937_64 rng(kSeed ^ 0x51811ull);
  for (int c = 0; c < 20; ++c) {
    const FuzzCase fc = sample_case(rng);
    const ProfileSignature sig = ProfileSignature::of(fc.inputs.timing);
    EXPECT_EQ(sig, ProfileSignature::of(fc.inputs.timing))
        << "case " << c << ": signature not a pure function";

    // Doubling every entry keeps the shape but moves the absolute scale —
    // fusion decisions compare gaps against absolute alpha, so the
    // signature must change.
    PassTiming scaled = fc.inputs.timing;
    for (auto* v : {&scaled.a_ready, &scaled.g_ready, &scaled.grad_ready}) {
      for (double& t : *v) t *= 2.0;
    }
    scaled.backward_end *= 2.0;
    EXPECT_NE(sig, ProfileSignature::of(scaled))
        << "case " << c << ": scale change must move the signature";
  }
}

TEST(PlannerFuzz, PlanCacheRoundTripsAndEvicts) {
  std::mt19937_64 rng(kSeed ^ 0xcac4eull);
  PlanCache cache(4);
  std::vector<std::pair<PlanCache::Key, std::string>> stored;
  for (int c = 0; c < 8; ++c) {
    const FuzzCase fc = sample_case(rng);
    const ScheduleCosts costs = costs_for(fc.world);
    IterationPlan plan = plan_iteration(fc.inputs, fc.options, costs);
    PlanCache::Key key{fc.options.factor_update, fc.options.inverse_update,
                       fc.options.factor_comm,
                       ProfileSignature::of(fc.inputs.timing)};
    const std::string text = plan_to_text(plan);
    cache.insert(key, std::move(plan));
    stored.emplace_back(std::move(key), text);
    EXPECT_LE(cache.size(), cache.capacity());
  }
  // The four newest survive FIFO eviction and round-trip byte-identically.
  for (std::size_t i = stored.size() - 4; i < stored.size(); ++i) {
    const std::shared_ptr<const IterationPlan> hit =
        cache.find(stored[i].first);
    ASSERT_NE(hit, nullptr) << "entry " << i << " evicted too early";
    EXPECT_EQ(plan_to_text(*hit), stored[i].second);
  }
  EXPECT_GE(cache.hits(), 4u);
}

}  // namespace
}  // namespace spdkfac::sched
