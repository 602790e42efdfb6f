// Cross-layer schedule equivalence — the acceptance test of the unified
// iteration task-graph: for every strategy × factor-comm mode × world size,
// the simulator's collective task sequence must be byte-identical to the
// collective submissions the runtime optimizer actually records on the
// async engine — same op kinds, same fused group membership, same element
// counts, same chosen all-reduce algorithm, same inverse placement and
// broadcast roots, in the same order.
//
// Both layers consume one sched::IterationPlan; this suite proves neither
// consumer drifts from it.  The runtime is given the model-derived pass
// timing as its planning profile (the paper's offline-profiling workflow),
// so its plan is built from exactly the inputs the simulator uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "core/dist_kfac.hpp"
#include "models/model_spec.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "perf/models.hpp"
#include "sched/planner.hpp"
#include "sched/serialize.hpp"
#include "sim/iteration.hpp"
#include "testsupport/backends.hpp"
#include "testsupport/codec_names.hpp"

namespace spdkfac {
namespace {

using nn::Tensor4D;
using tensor::Rng;

constexpr std::size_t kWidths[] = {6, 10, 8, 3};
constexpr std::size_t kIn = 6, kClasses = 3, kBatch = 8;
// Small threshold so the models split into several WFBP gradient groups.
constexpr std::size_t kGradThreshold = 80;
// Conv harness (mirrors models::conv_spec / nn::make_small_cnn).
constexpr std::size_t kConvChannels = 1, kConvHw = 8;
constexpr std::size_t kConvC1 = 4, kConvC2 = 6;

/// Which runtime network (and matching ModelSpec) a cell runs on —
/// exercises the plans on non-MLP shapes (mixed Conv2d/Linear factors).
enum class ModelKind { kMlp, kConv };

struct Config {
  core::DistStrategy strategy;
  sched::FactorCommMode factor_comm;  // SPD only; bulk strategies ignore it
  comm::AllReduceAlgo algo = comm::AllReduceAlgo::kRing;
  ModelKind model = ModelKind::kMlp;
  comm::Codec grad_codec = comm::Codec::kNone;  // factors ship lossless
  double topk_ratio = 0.01;
};

/// CI's forced-codec sweep: SPDKFAC_TEST_GRAD_CODEC / _TOPK_RATIO overlay
/// every cell (runtime options *and* simulator config — that is the point:
/// the whole suite must hold under compression too).
Config with_env_codecs(Config c) {
  if (const char* env = std::getenv("SPDKFAC_TEST_GRAD_CODEC")) {
    c.grad_codec = testsupport::codec_from_string(env);
  }
  if (const char* env = std::getenv("SPDKFAC_TEST_TOPK_RATIO")) {
    c.topk_ratio = std::stod(env);
  }
  return c;
}

std::string config_name(const Config& c) {
  std::string n = std::string(to_string(c.strategy)) + "/" +
                  sched::to_string(c.factor_comm) + "@" +
                  comm::to_string(c.algo) +
                  (c.model == ModelKind::kConv ? " conv" : " mlp");
  if (c.grad_codec != comm::Codec::kNone) {
    n += std::string(" codec=") + comm::to_string(c.grad_codec);
  }
  return n;
}

models::ModelSpec spec_for(ModelKind kind) {
  if (kind == ModelKind::kConv) {
    return models::conv_spec(kConvChannels, kConvHw, kConvC1, kConvC2,
                             kClasses);
  }
  return models::mlp_spec(kWidths);
}

nn::Sequential model_for(ModelKind kind, Rng& rng) {
  if (kind == ModelKind::kConv) {
    return nn::make_small_cnn(kConvChannels, kConvHw, kConvC1, kConvC2,
                              kClasses, rng);
  }
  return nn::make_mlp(kWidths, rng);
}

nn::Batch sample_for(ModelKind kind, std::size_t batch, Rng& rng) {
  if (kind == ModelKind::kConv) {
    nn::SyntheticClassification data(kClasses, kConvChannels, kConvHw, 77);
    return data.sample(batch, rng);
  }
  nn::SyntheticClassification data(kClasses, kIn, 1, 77);
  return data.sample(batch, rng);
}

Tensor4D input_for(ModelKind kind, const nn::Batch& batch) {
  if (kind == ModelKind::kConv) return batch.inputs;
  Tensor4D flat(batch.inputs.n, kIn, 1, 1);
  flat.data = batch.inputs.data;
  return flat;
}

sim::AlgorithmConfig sim_config(const Config& c) {
  sim::AlgorithmConfig cfg;
  switch (c.strategy) {
    case core::DistStrategy::kDKfac:
      cfg = sim::AlgorithmConfig::dkfac();
      break;
    case core::DistStrategy::kMpdKfac:
      cfg = sim::AlgorithmConfig::mpd_kfac();
      break;
    case core::DistStrategy::kSpdKfac:
      cfg = sim::AlgorithmConfig::spd_kfac();
      cfg.factor_comm = c.factor_comm;
      // The runtime's SPD-KFAC places whole layers where that pays; the
      // paper configuration keeps Algorithm 1's tensor granularity.
      cfg.inverse = sim::InverseMode::kLayerLBP;
      break;
  }
  cfg.grad_fusion_threshold = kGradThreshold;
  cfg.collective_algo = c.algo;
  cfg.grad_codec = c.grad_codec;
  cfg.topk_ratio = c.topk_ratio;
  return cfg;
}

struct RuntimeCapture {
  std::vector<comm::OpRecord> records;  // rank 0, engine execution order
  sched::IterationPlan plan;
  sched::Placement placement;
};

/// The per-rank side of one distributed K-FAC step (hooked or post-hoc)
/// with the model-derived planning profile; calls `inspect(optimizer)`
/// after the step so the caller can capture its observable schedule.
template <typename Inspect>
void train_one_step(const Config& c, const models::ModelSpec& spec,
                    const perf::ClusterCalibration& cal, bool hooked,
                    comm::Communicator& comm, Inspect&& inspect) {
  Rng init(4242);
  nn::Sequential model = model_for(c.model, init);
  auto layers = model.preconditioned_layers();

  core::DistKfacOptions opts;
  opts.strategy = c.strategy;
  opts.factor_comm = c.factor_comm;
  opts.collective_algo = c.algo;
  opts.grad_codec = c.grad_codec;
  opts.topk_ratio = c.topk_ratio;
  opts.grad_fusion_threshold = kGradThreshold;
  opts.lr = 0.1;
  opts.damping = 0.1;
  // Plan with the calibration's cost models and pass timing — the exact
  // inputs simulate_iteration hands the planner.
  opts.allreduce_model = cal.allreduce;
  opts.broadcast_model = cal.bcast_fabric;
  opts.inverse_model = cal.inverse;
  opts.profile = sched::timing_from_model(spec, kBatch, cal.compute,
                                          /*second_order=*/true);
  core::DistKfacOptimizer optimizer(layers, comm, opts);

  Rng shard(100 + comm.rank());
  nn::SoftmaxCrossEntropy loss;
  const nn::Batch batch = sample_for(c.model, kBatch, shard);
  const Tensor4D input = input_for(c.model, batch);
  if (hooked) {
    const nn::PassHooks hooks = optimizer.pass_hooks();
    loss.forward(model.forward(input, hooks), batch.labels);
    model.backward(loss.backward(), hooks);
  } else {
    loss.forward(model.forward(input), batch.labels);
    model.backward(loss.backward());
  }
  optimizer.step();
  inspect(optimizer);
}

/// One step across `world` in-process ranks; returns rank 0's observable
/// schedule.
RuntimeCapture run_runtime(int world, const Config& c,
                           const models::ModelSpec& spec,
                           const perf::ClusterCalibration& cal, bool hooked) {
  RuntimeCapture capture;
  comm::Cluster::launch(world, [&](comm::Communicator& comm) {
    train_one_step(c, spec, cal, hooked, comm, [&](auto& optimizer) {
      if (comm.rank() == 0) {
        capture.records = optimizer.comm_records();
        capture.plan = optimizer.plan();
        capture.placement = optimizer.placement();
      }
    });
  });
  return capture;
}

void expect_tasks_equal(const sched::Task& a, const sched::Task& b,
                        const std::string& context) {
  EXPECT_EQ(a.id, b.id) << context;
  EXPECT_EQ(a.kind, b.kind) << context;
  EXPECT_EQ(a.family, b.family) << context;
  EXPECT_EQ(a.layer, b.layer) << context;
  EXPECT_EQ(a.first, b.first) << context;
  EXPECT_EQ(a.last, b.last) << context;
  EXPECT_EQ(a.member_layers, b.member_layers) << context;
  EXPECT_EQ(a.tensor, b.tensor) << context;
  EXPECT_EQ(a.dim, b.dim) << context;
  EXPECT_EQ(a.elements, b.elements) << context;
  EXPECT_EQ(a.rank, b.rank) << context;
  EXPECT_EQ(a.algo, b.algo) << context;
  EXPECT_EQ(a.codec, b.codec) << context;
  EXPECT_EQ(a.wire_elements, b.wire_elements) << context;
  EXPECT_EQ(a.deferred, b.deferred) << context;
  EXPECT_EQ(a.deps, b.deps) << context;
  EXPECT_EQ(a.label, b.label) << context;
}

void check_equivalence(int world, const Config& cell, bool hooked) {
  const Config c = with_env_codecs(cell);
  const std::string context =
      config_name(c) + " P=" + std::to_string(world) +
      (hooked ? " hooked" : " post-hoc");
  const models::ModelSpec spec = spec_for(c.model);
  const auto cal =
      perf::ClusterCalibration::for_topology(comm::Topology::flat(world));

  const sim::IterationResult sim_res =
      sim::simulate_iteration(spec, kBatch, cal, sim_config(c));
  const RuntimeCapture runtime = run_runtime(world, c, spec, cal, hooked);

  // 1. The plans themselves are byte-identical, task by task.
  ASSERT_EQ(runtime.plan.tasks.size(), sim_res.plan.tasks.size()) << context;
  for (std::size_t i = 0; i < sim_res.plan.tasks.size(); ++i) {
    expect_tasks_equal(runtime.plan.tasks[i], sim_res.plan.tasks[i],
                       context + " task " + std::to_string(i));
  }
  ASSERT_EQ(runtime.plan.collective_order(), sim_res.plan.collective_order())
      << context;

  // 2. The runtime's recorded submissions are exactly the simulator's
  //    collective sequence — which is exactly the plan's canonical order:
  //    kind, grouping (via label + plan task), element count, algorithm,
  //    broadcast root, all in the same order.
  const std::vector<int> canonical = sim_res.plan.collective_order();
  ASSERT_EQ(runtime.records.size(), sim_res.collectives.size()) << context;
  ASSERT_EQ(canonical.size(), sim_res.collectives.size()) << context;
  for (std::size_t i = 0; i < runtime.records.size(); ++i) {
    const comm::OpRecord& rec = runtime.records[i];
    const sim::CollectiveChoice& col = sim_res.collectives[i];
    const std::string at = context + " collective " + std::to_string(i);
    ASSERT_GE(rec.plan_task, 0) << at << ": out-of-plan submission";
    EXPECT_EQ(rec.plan_task, canonical[i]) << at;
    EXPECT_EQ(rec.plan_task, col.plan_task) << at;
    EXPECT_EQ(rec.name, col.label) << at;
    EXPECT_EQ(rec.elements, col.elements) << at;
    const sched::Task& task = sim_res.plan.task(col.plan_task);
    EXPECT_EQ(task.elements, rec.elements) << at;
    if (task.kind != sched::TaskKind::kBroadcast) {
      EXPECT_EQ(task.algo, col.algo) << at;
    } else {
      EXPECT_EQ(task.rank, col.root) << at;
    }
  }

  // 3. Inverse placement (owners, CT/NCT typing) matches rank for rank.
  ASSERT_EQ(runtime.placement.assignments.size(),
            sim_res.placement.assignments.size())
      << context;
  for (std::size_t t = 0; t < sim_res.placement.assignments.size(); ++t) {
    const auto& rt = runtime.placement.assignments[t];
    const auto& sm = sim_res.placement.assignments[t];
    EXPECT_EQ(rt.nct, sm.nct) << context << " T" << t;
    EXPECT_EQ(rt.owner, sm.owner) << context << " T" << t;
    EXPECT_EQ(rt.dim, sm.dim) << context << " T" << t;
  }
}

class Equivalence : public ::testing::TestWithParam<int> {};

TEST_P(Equivalence, BulkStrategiesMatchSimulator) {
  for (const core::DistStrategy strategy :
       {core::DistStrategy::kDKfac, core::DistStrategy::kMpdKfac}) {
    check_equivalence(GetParam(),
                      {strategy, sched::FactorCommMode::kBulk}, false);
    check_equivalence(GetParam(),
                      {strategy, sched::FactorCommMode::kBulk}, true);
  }
}

TEST_P(Equivalence, SpdKfacMatchesSimulatorUnderEveryFactorCommMode) {
  for (const sched::FactorCommMode mode :
       {sched::FactorCommMode::kBulk, sched::FactorCommMode::kNaive,
        sched::FactorCommMode::kLayerWise,
        sched::FactorCommMode::kThresholdFuse,
        sched::FactorCommMode::kOptimalFuse}) {
    check_equivalence(GetParam(), {core::DistStrategy::kSpdKfac, mode},
                      false);
    check_equivalence(GetParam(), {core::DistStrategy::kSpdKfac, mode},
                      true);
  }
}

TEST_P(Equivalence, ConvModelMatchesSimulator) {
  // Non-MLP shapes: Conv2d factors (Cin*KH*KW + 1) mixed with a Linear
  // classifier, exercising the planner on heterogeneous dims.
  for (const sched::FactorCommMode mode :
       {sched::FactorCommMode::kLayerWise,
        sched::FactorCommMode::kOptimalFuse}) {
    check_equivalence(GetParam(),
                      {core::DistStrategy::kSpdKfac, mode,
                       comm::AllReduceAlgo::kRing, ModelKind::kConv},
                      false);
    check_equivalence(GetParam(),
                      {core::DistStrategy::kSpdKfac, mode,
                       comm::AllReduceAlgo::kRing, ModelKind::kConv},
                      true);
  }
  check_equivalence(GetParam(),
                    {core::DistStrategy::kMpdKfac,
                     sched::FactorCommMode::kBulk,
                     comm::AllReduceAlgo::kRing, ModelKind::kConv},
                    true);
}

TEST_P(Equivalence, AutoSelectedAlgorithmsMatchSimulator) {
  check_equivalence(GetParam(),
                    {core::DistStrategy::kSpdKfac,
                     sched::FactorCommMode::kOptimalFuse,
                     comm::AllReduceAlgo::kAuto},
                    true);
  check_equivalence(GetParam(),
                    {core::DistStrategy::kMpdKfac,
                     sched::FactorCommMode::kBulk,
                     comm::AllReduceAlgo::kHalvingDoubling},
                    false);
}

TEST_P(Equivalence, CompressedCollectivesMatchSimulator) {
  // Codec-annotated plans: the planner's compressed decisions (codec, wire
  // sizes, gradient groups re-derived from them) must reach the runtime
  // and the simulator identically, and the runtime's compressed
  // submissions must still follow the canonical order record for record.
  const Config cells[] = {
      {core::DistStrategy::kSpdKfac, sched::FactorCommMode::kOptimalFuse,
       comm::AllReduceAlgo::kRing, ModelKind::kMlp, comm::Codec::kTopK},
      {core::DistStrategy::kSpdKfac, sched::FactorCommMode::kOptimalFuse,
       comm::AllReduceAlgo::kAuto, ModelKind::kConv, comm::Codec::kTopK},
      {core::DistStrategy::kMpdKfac, sched::FactorCommMode::kBulk,
       comm::AllReduceAlgo::kRing, ModelKind::kMlp, comm::Codec::kTopK},
  };
  for (const Config& c : cells) {
    check_equivalence(GetParam(), c, false);
    check_equivalence(GetParam(), c, true);
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, Equivalence,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           // Two steps: `"P" + std::to_string(...)` trips
                           // GCC 12's bogus -Wrestrict (GCC PR 105329).
                           std::string name = "P";
                           name += std::to_string(info.param);
                           return name;
                         });

// ---------------------------------------------------------------------------
// Equivalence on a real wire: the same strategy cells over the socket
// transport, with the ranks as separate processes.  Rank 0 ships its
// recorded submissions and serialized plan back through the launcher pipe
// (encoded as doubles — integers and character codes are exact), and the
// parent holds them against the simulator byte for byte.  Moving the
// collectives onto a length-prefixed socket protocol must not change one
// submission, element count, or plan byte.
// ---------------------------------------------------------------------------

TEST(EquivalenceOverTheWire, SocketRuntimeMatchesSimulator) {
  SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(comm::TransportKind::kSocket);
  const Config cells[] = {
      {core::DistStrategy::kSpdKfac, sched::FactorCommMode::kOptimalFuse},
      {core::DistStrategy::kMpdKfac, sched::FactorCommMode::kBulk},
  };
  for (const int world : {2, 4}) {
    for (const Config& cell : cells) {
      const Config c = with_env_codecs(cell);
      const std::string context =
          config_name(c) + " P=" + std::to_string(world) + " socket";
      const models::ModelSpec spec = spec_for(c.model);
      const auto cal =
          perf::ClusterCalibration::for_topology(comm::Topology::flat(world));
      const sim::IterationResult sim_res =
          sim::simulate_iteration(spec, kBatch, cal, sim_config(c));

      const auto results = comm::Cluster::launch_collect(
          comm::TransportKind::kSocket, comm::Topology::flat(world),
          [&](comm::Communicator& comm) {
            std::vector<double> out;
            train_one_step(c, spec, cal, /*hooked=*/true, comm,
                           [&](auto& optimizer) {
                             if (comm.rank() != 0) return;
                             const auto records = optimizer.comm_records();
                             out.push_back(
                                 static_cast<double>(records.size()));
                             for (const comm::OpRecord& rec : records) {
                               out.push_back(rec.plan_task);
                               out.push_back(
                                   static_cast<double>(rec.elements));
                               out.push_back(
                                   static_cast<double>(rec.name.size()));
                               for (const char ch : rec.name) {
                                 out.push_back(ch);
                               }
                             }
                             const std::string plan_text =
                                 sched::plan_to_text(optimizer.plan());
                             out.push_back(
                                 static_cast<double>(plan_text.size()));
                             for (const char ch : plan_text) {
                               out.push_back(ch);
                             }
                           });
            return out;
          });

      // Decode rank 0's capture and hold it against the simulator.
      const std::vector<double>& enc = results[0];
      std::size_t pos = 0;
      auto next = [&]() { return enc.at(pos++); };
      const auto n_records = static_cast<std::size_t>(next());
      const std::vector<int> canonical = sim_res.plan.collective_order();
      ASSERT_EQ(n_records, sim_res.collectives.size()) << context;
      for (std::size_t i = 0; i < n_records; ++i) {
        const int plan_task = static_cast<int>(next());
        const auto elements = static_cast<std::size_t>(next());
        std::string name(static_cast<std::size_t>(next()), '\0');
        for (char& ch : name) ch = static_cast<char>(next());
        const sim::CollectiveChoice& col = sim_res.collectives[i];
        const std::string at = context + " collective " + std::to_string(i);
        EXPECT_EQ(plan_task, canonical[i]) << at;
        EXPECT_EQ(plan_task, col.plan_task) << at;
        EXPECT_EQ(elements, col.elements) << at;
        EXPECT_EQ(name, col.label) << at;
      }
      std::string plan_text(static_cast<std::size_t>(next()), '\0');
      for (char& ch : plan_text) ch = static_cast<char>(next());
      EXPECT_EQ(pos, enc.size()) << context;
      EXPECT_EQ(plan_text, sched::plan_to_text(sim_res.plan)) << context;
    }
  }
}

}  // namespace
}  // namespace spdkfac
