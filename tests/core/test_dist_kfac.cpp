// Distributed K-FAC equivalence and consistency tests — the reproduction of
// the paper's correctness claim (Section VI): "our proposed algorithms are
// systemic optimizations without affecting the numerical results of D-KFAC,
// [so] SPD-KFAC should generate identical numerical results".
//
// We verify three levels:
//   1. every strategy keeps all ranks' model replicas bitwise identical;
//   2. D-KFAC, MPD-KFAC and SPD-KFAC produce the same updates up to
//      floating-point reassociation of the all-reduce;
//   3. the P-worker run matches a serial reference that averages the
//      per-shard factors and gradients (Eq. 13).
#include "core/dist_kfac.hpp"

#include <gtest/gtest.h>

#include "comm/cluster.hpp"
#include "nn/data.hpp"
#include "tensor/linalg.hpp"

namespace spdkfac::core {
namespace {

using nn::Tensor4D;
using tensor::Matrix;
using tensor::Rng;

constexpr std::size_t kIn = 6, kHidden = 10, kClasses = 3;
constexpr std::uint64_t kModelSeed = 4242;
constexpr std::uint64_t kDataSeed = 99;

nn::Sequential make_model() {
  Rng rng(kModelSeed);
  const std::size_t widths[] = {kIn, kHidden, kClasses};
  return nn::make_mlp(widths, rng);
}

/// One local forward/backward on this worker's shard.
void run_pass(nn::Sequential& model, const nn::SyntheticClassification& data,
              Rng& rng, std::size_t batch) {
  auto b = data.sample(batch, rng);
  Tensor4D flat(b.inputs.n, kIn, 1, 1);
  flat.data = b.inputs.data;
  nn::SoftmaxCrossEntropy loss;
  loss.forward(model.forward(flat), b.labels);
  model.backward(loss.backward());
}

/// Runs `steps` distributed K-FAC steps on `world` workers and returns the
/// final weight matrices of every rank.
std::vector<std::vector<Matrix>> train_distributed(int world,
                                                   DistStrategy strategy,
                                                   int steps,
                                                   std::size_t batch = 8) {
  std::vector<std::vector<Matrix>> final_weights(world);
  comm::Cluster::launch(world, [&](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    DistKfacOptions opts;
    opts.strategy = strategy;
    opts.lr = 0.1;
    opts.damping = 0.1;
    opts.stat_decay = 0.5;
    DistKfacOptimizer optimizer(layers, comm, opts);

    nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
    Rng shard_rng(1000 + comm.rank());
    for (int s = 0; s < steps; ++s) {
      run_pass(model, data, shard_rng, batch);
      optimizer.step();
    }
    std::vector<Matrix> weights;
    for (auto* l : layers) weights.push_back(l->weight());
    final_weights[comm.rank()] = std::move(weights);
  });
  return final_weights;
}

class StrategySuite : public ::testing::TestWithParam<DistStrategy> {};

TEST_P(StrategySuite, AllRanksStayBitwiseIdentical) {
  const auto weights = train_distributed(4, GetParam(), 3);
  for (int r = 1; r < 4; ++r) {
    for (std::size_t l = 0; l < weights[0].size(); ++l) {
      EXPECT_EQ(tensor::max_abs_diff(weights[r][l], weights[0][l]), 0.0)
          << to_string(GetParam()) << " rank " << r << " layer " << l;
    }
  }
}

TEST_P(StrategySuite, MatchesSerialShardAveragedReference) {
  // Serial reference for one step: run every shard's pass on its own model
  // replica, average factors and gradients, apply Eq. (13) once.
  const int world = 3;
  const std::size_t batch = 8;

  // --- distributed run, 1 step ---
  const auto dist_weights = train_distributed(world, GetParam(), 1, batch);

  // --- serial reference ---
  std::vector<nn::Sequential> replicas;
  for (int r = 0; r < world; ++r) replicas.push_back(make_model());
  nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
  for (int r = 0; r < world; ++r) {
    Rng shard_rng(1000 + r);
    run_pass(replicas[r], data, shard_rng, batch);
  }
  auto ref_layers = replicas[0].preconditioned_layers();
  std::vector<Matrix> expected;
  for (std::size_t l = 0; l < ref_layers.size(); ++l) {
    Matrix a, g, grad;
    for (int r = 0; r < world; ++r) {
      auto* layer = replicas[r].preconditioned_layers()[l];
      const Matrix la = compute_factor_a(*layer);
      const Matrix lg = compute_factor_g(*layer);
      if (r == 0) {
        a = la;
        g = lg;
        grad = layer->weight_grad();
      } else {
        a += la;
        g += lg;
        grad += layer->weight_grad();
      }
    }
    a *= 1.0 / world;
    g *= 1.0 / world;
    grad *= 1.0 / world;
    const Matrix delta =
        tensor::matmul(tensor::damped_inverse(g, 0.1),
                       tensor::matmul(grad, tensor::damped_inverse(a, 0.1)));
    Matrix w = ref_layers[l]->weight();
    expected.push_back(w - delta * 0.1);
  }

  for (std::size_t l = 0; l < expected.size(); ++l) {
    EXPECT_TRUE(tensor::allclose(dist_weights[0][l], expected[l], 1e-8, 1e-10))
        << to_string(GetParam()) << " layer " << l << " max diff "
        << tensor::max_abs_diff(dist_weights[0][l], expected[l]);
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategySuite,
                         ::testing::Values(DistStrategy::kDKfac,
                                           DistStrategy::kMpdKfac,
                                           DistStrategy::kSpdKfac),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

TEST(DistKfac, StrategiesAgreeWithEachOther) {
  // The paper's central numerical claim: SPD-KFAC == MPD-KFAC == D-KFAC up
  // to all-reduce reassociation (different fusion layouts change the
  // floating-point summation grouping, nothing else).
  const auto dkfac = train_distributed(4, DistStrategy::kDKfac, 3);
  const auto mpd = train_distributed(4, DistStrategy::kMpdKfac, 3);
  const auto spd = train_distributed(4, DistStrategy::kSpdKfac, 3);
  for (std::size_t l = 0; l < dkfac[0].size(); ++l) {
    EXPECT_TRUE(tensor::allclose(mpd[0][l], dkfac[0][l], 1e-9, 1e-11))
        << "MPD vs D layer " << l;
    EXPECT_TRUE(tensor::allclose(spd[0][l], dkfac[0][l], 1e-9, 1e-11))
        << "SPD vs D layer " << l;
  }
}

TEST(DistKfac, SingleWorkerMatchesLocalKfacOptimizer) {
  // P = 1 distributed must collapse to the single-process optimizer.
  const auto dist_weights = train_distributed(1, DistStrategy::kSpdKfac, 4);

  nn::Sequential model = make_model();
  auto layers = model.preconditioned_layers();
  KfacOptions opts;
  opts.lr = 0.1;
  opts.damping = 0.1;
  opts.stat_decay = 0.5;
  KfacOptimizer kfac(layers, opts);
  nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
  Rng shard_rng(1000);
  for (int s = 0; s < 4; ++s) {
    run_pass(model, data, shard_rng, 8);
    kfac.step();
  }
  for (std::size_t l = 0; l < layers.size(); ++l) {
    EXPECT_TRUE(
        tensor::allclose(dist_weights[0][l], layers[l]->weight(), 1e-9, 1e-11))
        << "layer " << l;
  }
}

TEST(DistKfac, PlacementMatchesStrategy) {
  comm::Cluster::launch(4, [](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();

    DistKfacOptions opts;
    opts.strategy = DistStrategy::kMpdKfac;
    DistKfacOptimizer mpd(layers, comm, opts);
    nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
    Rng rng(7 + comm.rank());
    run_pass(model, data, rng, 4);
    mpd.step();
    EXPECT_EQ(mpd.placement().policy, "Seq-Dist");
    EXPECT_EQ(mpd.placement().num_ncts(), 0u);
    EXPECT_TRUE(mpd.placement().valid(2 * layers.size()));
  });
}

TEST(DistKfac, SpdPlacementUsesLbp) {
  comm::Cluster::launch(2, [](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    DistKfacOptions opts;
    opts.strategy = DistStrategy::kSpdKfac;
    DistKfacOptimizer spd(layers, comm, opts);
    nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
    Rng rng(7 + comm.rank());
    run_pass(model, data, rng, 4);
    spd.step();
    // Algorithm 1 at layer granularity (sched::lbp_layer_place).
    EXPECT_EQ(spd.placement().policy, "Layer-LBP");
    EXPECT_TRUE(spd.placement().valid(2 * layers.size()));
  });
}

TEST(DistKfac, SpdFusionGroupsCoverAllLayersAfterWarmup) {
  // Step 0 communicates layer-wise (no measurements yet); step 1 plans from
  // the measured factor times with Eq. (15).  Either way the groups must
  // partition the layer range exactly.
  comm::Cluster::launch(2, [](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    const std::size_t L = layers.size();
    DistKfacOptions opts;
    opts.strategy = DistStrategy::kSpdKfac;
    DistKfacOptimizer spd(layers, comm, opts);
    nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
    Rng rng(17 + comm.rank());
    for (int s = 0; s < 2; ++s) {
      run_pass(model, data, rng, 4);
      spd.step();
      const auto& a_groups = spd.last_a_groups();
      const auto& g_groups = spd.last_g_groups();
      ASSERT_FALSE(a_groups.empty());
      ASSERT_FALSE(g_groups.empty());
      EXPECT_EQ(a_groups.front().first, 0u);
      EXPECT_EQ(a_groups.back().last, L - 1);
      EXPECT_EQ(g_groups.back().last, L - 1);
      for (std::size_t i = 1; i < a_groups.size(); ++i) {
        EXPECT_EQ(a_groups[i].first, a_groups[i - 1].last + 1);
      }
    }
  });
}

TEST(DistKfac, TrainingReducesLossAcrossWorkers) {
  const int world = 4;
  std::vector<double> first(world), last(world);
  comm::Cluster::launch(world, [&](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    DistKfacOptions opts;
    opts.strategy = DistStrategy::kSpdKfac;
    opts.lr = 0.2;
    opts.damping = 0.1;
    DistKfacOptimizer optimizer(layers, comm, opts);
    nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed, 0.2);
    Rng rng(500 + comm.rank());
    nn::SoftmaxCrossEntropy loss;
    for (int s = 0; s < 20; ++s) {
      auto b = data.sample(16, rng);
      Tensor4D flat(b.inputs.n, kIn, 1, 1);
      flat.data = b.inputs.data;
      const double l = loss.forward(model.forward(flat), b.labels);
      model.backward(loss.backward());
      optimizer.step();
      if (s == 0) first[comm.rank()] = l;
      last[comm.rank()] = l;
    }
  });
  for (int r = 0; r < world; ++r) {
    EXPECT_LT(last[r], 0.6 * first[r]) << "rank " << r;
  }
}

TEST(DistKfac, RejectsEmptyLayerList) {
  comm::Cluster::launch(1, [](comm::Communicator& comm) {
    EXPECT_THROW(DistKfacOptimizer({}, comm), std::invalid_argument);
  });
}

TEST(DistKfac, CommRecordsFromIndexAreTheSuffix) {
  comm::Cluster::launch(2, [](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    DistKfacOptions opts;
    opts.strategy = DistStrategy::kSpdKfac;
    DistKfacOptimizer optimizer(layers, comm, opts);
    nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
    Rng rng(23 + comm.rank());
    for (int s = 0; s < 3; ++s) {
      run_pass(model, data, rng, 4);
      optimizer.step();
    }
    const std::vector<comm::OpRecord> all = optimizer.comm_records();
    ASSERT_FALSE(all.empty());
    for (std::size_t k = 0; k <= all.size() + 1; ++k) {
      const std::vector<comm::OpRecord> tail = optimizer.comm_records(k);
      ASSERT_EQ(tail.size(), all.size() - std::min(k, all.size())) << k;
      for (std::size_t i = 0; i < tail.size(); ++i) {
        const comm::OpRecord& want = all[k + i];
        EXPECT_EQ(tail[i].name, want.name);
        EXPECT_EQ(tail[i].plan_task, want.plan_task);
        EXPECT_EQ(tail[i].submit_s, want.submit_s);
        EXPECT_EQ(tail[i].start_s, want.start_s);
        EXPECT_EQ(tail[i].end_s, want.end_s);
        EXPECT_EQ(tail[i].elements, want.elements);
        EXPECT_EQ(tail[i].data, want.data);
      }
    }
  });
}

TEST(DistKfac, UpdateFrequenciesReduceWork) {
  comm::Cluster::launch(2, [](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    DistKfacOptions opts;
    opts.strategy = DistStrategy::kDKfac;
    opts.factor_update_freq = 2;
    opts.inverse_update_freq = 2;
    DistKfacOptimizer optimizer(layers, comm, opts);
    nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
    Rng rng(31 + comm.rank());
    run_pass(model, data, rng, 4);
    optimizer.step();
    const Matrix inv_after_1 = optimizer.inverse_a(0);
    run_pass(model, data, rng, 4);
    optimizer.step();  // freq 2: inverses must be unchanged
    EXPECT_EQ(tensor::max_abs_diff(optimizer.inverse_a(0), inv_after_1), 0.0);
  });
}

/// Steady steps rebuild every factor-sized matrix in place: once a step has
/// sized them, the inverse slots keep their storage whether this rank
/// inverts a tensor itself (NCT, D-KFAC, a CT it owns) or receives its
/// broadcast, serially and under a pool.  MPD-KFAC broadcasts every
/// inverse, D-KFAC replicates every inverse, and the input width makes
/// SPD-KFAC's layers worth owning, so its owners invert in place what the
/// other rank never holds.
TEST(DistKfac, InverseSlotsKeepTheirStorageAcrossSteps) {
  constexpr std::size_t kWideIn = 48;
  for (const DistStrategy strategy :
       {DistStrategy::kSpdKfac, DistStrategy::kMpdKfac,
        DistStrategy::kDKfac}) {
    for (const std::size_t pool_size : {0u, 2u}) {
      comm::Cluster::launch(2, [&](comm::Communicator& comm) {
        Rng init(kModelSeed);
        const std::size_t widths[] = {kWideIn, 40, kClasses};
        nn::Sequential model = nn::make_mlp(widths, init);
        auto layers = model.preconditioned_layers();
        DistKfacOptions opts;
        opts.strategy = strategy;
        opts.pool_size = pool_size;
        DistKfacOptimizer optimizer(layers, comm, opts);
        nn::SyntheticClassification data(kClasses, kWideIn, 1, kDataSeed);
        Rng rng(51 + comm.rank());
        nn::SoftmaxCrossEntropy loss;
        std::vector<const double*> warm;
        for (int s = 0; s < 4; ++s) {
          auto b = data.sample(8, rng);
          Tensor4D flat(b.inputs.n, kWideIn, 1, 1);
          flat.data = b.inputs.data;
          loss.forward(model.forward(flat), b.labels);
          model.backward(loss.backward());
          optimizer.step();
          std::vector<const double*> storage;
          for (std::size_t l = 0; l < layers.size(); ++l) {
            storage.push_back(optimizer.inverse_a(l).data().data());
            storage.push_back(optimizer.inverse_g(l).data().data());
          }
          if (s == 0) {
            warm = storage;
          } else {
            EXPECT_EQ(storage, warm)
                << to_string(strategy) << " pool " << pool_size << " step "
                << s << " rank " << comm.rank();
          }
        }
        if (strategy == DistStrategy::kSpdKfac) {
          const sched::Placement& placement = optimizer.placement();
          EXPECT_EQ(placement.policy, "Layer-LBP");
          EXPECT_TRUE(placement.owned(0));
        }
      });
    }
  }
}

/// Real-numerics path of the collective algorithm library: training on a
/// hierarchical topology with the auto-selected algorithms must keep ranks
/// bitwise identical and match the ring run up to the floating-point
/// reassociation the different reduction orders introduce.
TEST(DistKfac, TopologyAwareCollectivesMatchRingNumerics) {
  const comm::Topology topo = comm::Topology::multi_node(2, 2);
  auto train = [&](comm::AllReduceAlgo algo) {
    std::vector<std::vector<Matrix>> final_weights(topo.world_size());
    comm::Cluster::launch(topo, [&](comm::Communicator& comm) {
      nn::Sequential model = make_model();
      auto layers = model.preconditioned_layers();
      DistKfacOptions opts;
      opts.strategy = DistStrategy::kSpdKfac;
      opts.lr = 0.1;
      opts.damping = 0.1;
      opts.stat_decay = 0.5;
      opts.collective_algo = algo;
      DistKfacOptimizer optimizer(layers, comm, opts);
      if (algo == comm::AllReduceAlgo::kAuto) {
        // On a 2x2 hierarchy the default link models never pick the ring.
        EXPECT_NE(optimizer.collective_algo(1), comm::AllReduceAlgo::kRing);
        EXPECT_NE(optimizer.collective_algo(1 << 22),
                  comm::AllReduceAlgo::kRing);
      }
      nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
      Rng shard_rng(1000 + comm.rank());
      for (int s = 0; s < 3; ++s) {
        run_pass(model, data, shard_rng, 8);
        optimizer.step();
      }
      std::vector<Matrix> weights;
      for (auto* l : layers) weights.push_back(l->weight());
      final_weights[comm.rank()] = std::move(weights);
    });
    return final_weights;
  };

  const auto ring = train(comm::AllReduceAlgo::kRing);
  const auto autosel = train(comm::AllReduceAlgo::kAuto);
  const auto hd = train(comm::AllReduceAlgo::kHalvingDoubling);
  for (const auto& run : {ring, autosel, hd}) {
    for (int r = 1; r < topo.world_size(); ++r) {
      for (std::size_t l = 0; l < run[r].size(); ++l) {
        EXPECT_EQ(tensor::max_abs_diff(run[r][l], run[0][l]), 0.0)
            << "rank " << r << " layer " << l;
      }
    }
  }
  for (std::size_t l = 0; l < ring[0].size(); ++l) {
    EXPECT_TRUE(tensor::allclose(autosel[0][l], ring[0][l], 1e-8, 1e-10))
        << "auto vs ring, layer " << l;
    EXPECT_TRUE(tensor::allclose(hd[0][l], ring[0][l], 1e-8, 1e-10))
        << "halving-doubling vs ring, layer " << l;
  }
}

}  // namespace
}  // namespace spdkfac::core
