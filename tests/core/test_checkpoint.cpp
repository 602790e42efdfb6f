// Checkpoint/restore suite: the journal format (CRC guarding, truncation,
// versioning), optimizer round-trips, the bitwise-resume contract — a run
// interrupted by checkpoint/restore must be indistinguishable from the
// uninterrupted run — and the elastic path (restore at a different world
// size re-plans instead of replaying a stale schedule).  Plus the
// integration story the PR exists for: a rank killed mid-step surfaces
// comm::RankFailure on every survivor, the optimizer latches failed(), and
// a checkpoint taken before the death restores into a fresh cluster that
// finishes training with exactly the weights of a run nothing ever killed.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/fault.hpp"
#include "core/dist_kfac.hpp"
#include "nn/data.hpp"
#include "tensor/linalg.hpp"
#include "testsupport/backends.hpp"

namespace spdkfac::core {
namespace {

using nn::Tensor4D;
using tensor::Matrix;
using tensor::Rng;

// ---------------------------------------------------------------------------
// Journal layer
// ---------------------------------------------------------------------------

TEST(Journal, RoundTripsRecords) {
  std::ostringstream out;
  journal::Writer writer(out);
  journal::Payload p1;
  p1.put_u64(42);
  p1.put_f64(-0.0);
  writer.record(journal::RecordType::kMeta, 0, p1);
  journal::Payload p2;
  p2.put_matrix(Matrix{{1.0, 2.0}, {3.0, 4.0}});
  writer.record(journal::RecordType::kWeights, 7, p2);
  writer.finish();

  std::istringstream in(out.str());
  journal::Reader reader(in);
  auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, journal::RecordType::kMeta);
  auto v1 = first->view();
  EXPECT_EQ(v1.get_u64(), 42u);
  EXPECT_EQ(std::signbit(v1.get_f64()), true);  // -0.0 survives bitwise
  auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, journal::RecordType::kWeights);
  EXPECT_EQ(second->index, 7);
  auto v2 = second->view();
  const Matrix m = v2.get_matrix();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());  // stays exhausted
}

TEST(Journal, CrcMatchesKnownVector) {
  // CRC-32("123456789") = 0xCBF43926, the IEEE 802.3 check value.
  const std::string data = "123456789";
  EXPECT_EQ(journal::crc32(std::span(
                reinterpret_cast<const unsigned char*>(data.data()),
                data.size())),
            0xCBF43926u);
}

std::string valid_journal() {
  std::ostringstream out;
  journal::Writer writer(out);
  journal::Payload p;
  for (int i = 0; i < 32; ++i) p.put_u64(static_cast<std::uint64_t>(i));
  writer.record(journal::RecordType::kMeta, 0, p);
  writer.finish();
  return out.str();
}

TEST(Journal, DetectsEveryFlippedBitViaCrc) {
  const std::string good = valid_journal();
  // Flip one bit in every payload-area byte: each must be caught by the
  // frame CRC (header-area flips may also surface as bad magic/version).
  for (std::size_t byte = 12; byte < good.size(); ++byte) {
    std::string bad = good;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x10);
    std::istringstream in(bad);
    EXPECT_THROW(
        {
          journal::Reader reader(in);
          while (reader.next().has_value()) {
          }
        },
        std::runtime_error)
        << "flip at byte " << byte << " went undetected";
  }
}

TEST(Journal, DetectsTruncation) {
  const std::string good = valid_journal();
  // A journal cut anywhere before its end must fail loudly — the
  // kill-during-checkpoint scenario.
  for (std::size_t len : {good.size() - 1, good.size() / 2, std::size_t{9}}) {
    std::istringstream in(good.substr(0, len));
    EXPECT_THROW(
        {
          journal::Reader reader(in);
          while (reader.next().has_value()) {
          }
        },
        std::runtime_error)
        << "truncation to " << len << " bytes went undetected";
  }
}

TEST(Journal, RejectsForeignMagicAndVersion) {
  std::istringstream junk("not a checkpoint at all");
  EXPECT_THROW(journal::Reader reader(junk), std::runtime_error);

  std::string bumped = valid_journal();
  bumped[8] = static_cast<char>(journal::kVersion + 1);  // version field
  std::istringstream in(bumped);
  EXPECT_THROW(journal::Reader reader(in), std::runtime_error);
}

// Version-1 journals carried explicit inverses where version 2 carries the
// factored form; solving with an inverse as if it were a factor would
// silently train on garbage, so the old version must be refused by name.
TEST(Journal, RejectsVersionOneJournalNamingTheVersion) {
  ASSERT_EQ(journal::kVersion, 2u);
  std::string old = valid_journal();
  old[8] = 1;  // little-endian version field, low byte
  std::istringstream in(old);
  try {
    journal::Reader reader(in);
    FAIL() << "a version-1 journal was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Training harness (mirrors test_dist_kfac.cpp)
// ---------------------------------------------------------------------------

constexpr std::size_t kIn = 6, kHidden = 10, kClasses = 3;
constexpr std::uint64_t kModelSeed = 4242;
constexpr std::uint64_t kDataSeed = 99;
constexpr std::size_t kBatch = 8;

nn::Sequential make_model() {
  Rng rng(kModelSeed);
  const std::size_t widths[] = {kIn, kHidden, kClasses};
  return nn::make_mlp(widths, rng);
}

/// A fixed planning profile pins the schedule: resumed runs must replay the
/// identical plan for weights to be bitwise comparable (with live profiling
/// the plan is a function of wall-clock noise, which no checkpoint can
/// reproduce — the checkpoint carries the *planning state*, and a fixed
/// profile makes that state the whole story).
sched::PassTiming fixed_profile(std::size_t layers) {
  sched::PassTiming t;
  for (std::size_t l = 0; l < layers; ++l) {
    t.a_ready.push_back(1e-4 * static_cast<double>(l + 1));
    t.g_ready.push_back(1e-3 + 1e-4 * static_cast<double>(l + 1));
    t.grad_ready.push_back(1e-3 + 1.5e-4 * static_cast<double>(l + 1));
  }
  t.backward_end = 2e-3;
  return t;
}

DistKfacOptions make_options(std::size_t layers) {
  DistKfacOptions opts;
  opts.strategy = DistStrategy::kSpdKfac;
  opts.lr = 0.1;
  opts.damping = 0.1;
  opts.stat_decay = 0.5;
  opts.profile = fixed_profile(layers);
  return opts;
}

void run_pass(nn::Sequential& model, const nn::SyntheticClassification& data,
              Rng& rng) {
  auto b = data.sample(kBatch, rng);
  Tensor4D flat(b.inputs.n, kIn, 1, 1);
  flat.data = b.inputs.data;
  nn::SoftmaxCrossEntropy loss;
  loss.forward(model.forward(flat), b.labels);
  model.backward(loss.backward());
}

/// Trains `steps` steps on `world` in-process ranks; optionally saves a
/// per-rank checkpoint after `save_after` steps.  Returns rank 0's final
/// weights (all ranks are asserted bitwise identical elsewhere).
std::vector<Matrix> train(int world, int steps, int save_after = -1,
                          std::vector<std::string>* blobs = nullptr) {
  std::vector<Matrix> final_weights;
  if (blobs != nullptr) blobs->assign(static_cast<std::size_t>(world), {});
  comm::Cluster::launch(world, [&](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    DistKfacOptimizer optimizer(layers, comm, make_options(layers.size()));
    nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
    Rng shard_rng(1000 + comm.rank());
    for (int s = 0; s < steps; ++s) {
      run_pass(model, data, shard_rng);
      optimizer.step();
      if (blobs != nullptr && s + 1 == save_after) {
        std::ostringstream out;
        optimizer.save_checkpoint(out);
        (*blobs)[static_cast<std::size_t>(comm.rank())] = out.str();
      }
    }
    if (comm.rank() == 0) {
      for (auto* l : layers) final_weights.push_back(l->weight());
    }
  });
  return final_weights;
}

/// Restores each rank from its blob and trains `steps` more steps,
/// replaying the shard RNG past the `done` steps the checkpoint covers.
std::vector<Matrix> resume(int world, const std::vector<std::string>& blobs,
                           int done, int steps) {
  std::vector<Matrix> final_weights;
  comm::Cluster::launch(world, [&](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    DistKfacOptimizer optimizer(layers, comm, make_options(layers.size()));
    std::istringstream in(blobs[static_cast<std::size_t>(comm.rank())]);
    optimizer.restore_checkpoint(in);
    nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
    Rng shard_rng(1000 + comm.rank());
    for (int s = 0; s < done; ++s) data.sample(kBatch, shard_rng);  // replay
    for (int s = 0; s < steps; ++s) {
      run_pass(model, data, shard_rng);
      optimizer.step();
    }
    if (comm.rank() == 0) {
      for (auto* l : layers) final_weights.push_back(l->weight());
    }
  });
  return final_weights;
}

void expect_bitwise_equal(const std::vector<Matrix>& a,
                          const std::vector<Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t l = 0; l < a.size(); ++l) {
    EXPECT_EQ(tensor::max_abs_diff(a[l], b[l]), 0.0) << "layer " << l;
  }
}

// ---------------------------------------------------------------------------
// Optimizer round-trips
// ---------------------------------------------------------------------------

TEST(Checkpoint, ResumedRunIsBitwiseIdenticalToUninterrupted) {
  const auto uninterrupted = train(2, 4);
  std::vector<std::string> blobs;
  train(2, 2, /*save_after=*/2, &blobs);
  ASSERT_FALSE(blobs[0].empty());
  const auto resumed = resume(2, blobs, /*done=*/2, /*steps=*/2);
  expect_bitwise_equal(uninterrupted, resumed);
}

TEST(Checkpoint, RestorePreservesCountersAndProfile) {
  std::vector<std::string> blobs;
  train(2, 3, /*save_after=*/3, &blobs);
  comm::Cluster::launch(2, [&](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    DistKfacOptimizer optimizer(layers, comm, make_options(layers.size()));
    std::istringstream in(blobs[static_cast<std::size_t>(comm.rank())]);
    optimizer.restore_checkpoint(in);
    EXPECT_EQ(optimizer.steps(), 3u);
    EXPECT_FALSE(optimizer.failed());
    EXPECT_EQ(optimizer.planning_profile().a_ready,
              fixed_profile(layers.size()).a_ready);
    EXPECT_EQ(optimizer.plan_cache().size(), 0u);  // cache never serialized
  });
}

TEST(Checkpoint, CorruptBlobLeavesOptimizerUntouched) {
  std::vector<std::string> blobs;
  train(1, 2, /*save_after=*/2, &blobs);
  std::string bad = blobs[0];
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x40);
  comm::Cluster::launch(1, [&](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    DistKfacOptimizer optimizer(layers, comm, make_options(layers.size()));
    const Matrix before = layers[0]->weight();
    std::istringstream in(bad);
    EXPECT_THROW(optimizer.restore_checkpoint(in), std::runtime_error);
    EXPECT_EQ(tensor::max_abs_diff(layers[0]->weight(), before), 0.0);
    EXPECT_EQ(optimizer.steps(), 0u);
  });
}

TEST(Checkpoint, RejectsMismatchedModelAndStrategy) {
  std::vector<std::string> blobs;
  train(1, 1, /*save_after=*/1, &blobs);
  comm::Cluster::launch(1, [&](comm::Communicator& comm) {
    {
      // Wrong layer shapes.
      Rng rng(kModelSeed);
      const std::size_t widths[] = {kIn, kHidden + 2, kClasses};
      nn::Sequential other = nn::make_mlp(widths, rng);
      auto layers = other.preconditioned_layers();
      DistKfacOptimizer optimizer(layers, comm, make_options(layers.size()));
      std::istringstream in(blobs[0]);
      EXPECT_THROW(optimizer.restore_checkpoint(in), std::runtime_error);
    }
    {
      // Wrong strategy.
      nn::Sequential model = make_model();
      auto layers = model.preconditioned_layers();
      DistKfacOptions opts = make_options(layers.size());
      opts.strategy = DistStrategy::kDKfac;
      DistKfacOptimizer optimizer(layers, comm, opts);
      std::istringstream in(blobs[0]);
      EXPECT_THROW(optimizer.restore_checkpoint(in), std::runtime_error);
    }
  });
}

// ---------------------------------------------------------------------------
// Elastic restart: restore at a different world size
// ---------------------------------------------------------------------------

TEST(Checkpoint, ElasticRestoreAtSmallerWorldReplansAndRuns) {
  std::vector<std::string> blobs;
  train(4, 2, /*save_after=*/2, &blobs);
  // Any single rank's checkpoint restores any cluster (state is
  // rank-identical); here both survivors restore from rank 0's blob.
  std::vector<std::vector<Matrix>> weights(2);
  comm::Cluster::launch(2, [&](comm::Communicator& comm) {
    nn::Sequential model = make_model();
    auto layers = model.preconditioned_layers();
    DistKfacOptimizer optimizer(layers, comm, make_options(layers.size()));
    std::istringstream in(blobs[0]);
    optimizer.restore_checkpoint(in);
    EXPECT_EQ(optimizer.steps(), 2u);
    nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
    Rng shard_rng(1000 + comm.rank());
    for (int s = 0; s < 2; ++s) data.sample(kBatch, shard_rng);
    run_pass(model, data, shard_rng);
    optimizer.step();
    EXPECT_EQ(optimizer.steps(), 3u);
    std::vector<Matrix> w;
    for (auto* l : layers) w.push_back(l->weight());
    weights[static_cast<std::size_t>(comm.rank())] = std::move(w);
  });
  // The shrunk cluster must still keep its replicas bitwise identical.
  expect_bitwise_equal(weights[0], weights[1]);
}

// ---------------------------------------------------------------------------
// The full story: checkpoint, kill a rank mid-step, restore, finish — and
// end up exactly where an undisturbed run ends up.
// ---------------------------------------------------------------------------

TEST(Checkpoint, KillMidStepThenRestoreMatchesUninterruptedRun) {
  const int world = 2;
  const auto uninterrupted = train(world, 4);
  std::vector<std::string> blobs;
  train(world, 2, /*save_after=*/2, &blobs);

  // A doomed cluster: rank 1's first send dies (SIGKILL semantics; the
  // in-process backend throws FaultInjected on the victim instead).  The
  // survivor's step() must surface a RankFailure and latch failed().
  comm::LaunchOptions fault_opts;
  fault_opts.comm_timeout_s = 0.4;
  fault_opts.collect_timeout_s = 30.0;
  fault_opts.fault.rank = 1;
  fault_opts.fault.action = comm::FaultAction::kKill;
  fault_opts.fault.op = comm::FaultOp::kSend;
  try {
    comm::Cluster::launch_collect(
        comm::TransportKind::kInProcess, comm::Topology::flat(world),
        [&](comm::Communicator& comm) -> std::vector<double> {
          nn::Sequential model = make_model();
          auto layers = model.preconditioned_layers();
          DistKfacOptimizer optimizer(layers, comm,
                                      make_options(layers.size()));
          nn::SyntheticClassification data(kClasses, kIn, 1, kDataSeed);
          Rng shard_rng(1000 + comm.rank());
          run_pass(model, data, shard_rng);
          try {
            optimizer.step();
          } catch (const comm::RankFailure& failure) {
            EXPECT_TRUE(optimizer.failed());
            EXPECT_THROW(optimizer.step(), std::logic_error);
            return {1.0, static_cast<double>(failure.failed_rank())};
          }
          return {0.0};
        },
        fault_opts);
    FAIL() << "the victim's death must surface as LaunchFailure";
  } catch (const comm::LaunchFailure& failure) {
    const auto& survivor = failure.partial_results()[0];
    ASSERT_EQ(survivor.size(), 2u) << "rank 0 did not observe the failure";
    EXPECT_EQ(survivor[0], 1.0);
    EXPECT_EQ(survivor[1], 1.0) << "rank 0 misattributed the dead rank";
  }

  // Recovery: a fresh cluster restores the pre-kill checkpoint and runs the
  // remaining steps — bitwise the same endpoint as the run nothing killed.
  const auto resumed = resume(world, blobs, /*done=*/2, /*steps=*/2);
  expect_bitwise_equal(uninterrupted, resumed);
}

}  // namespace
}  // namespace spdkfac::core
