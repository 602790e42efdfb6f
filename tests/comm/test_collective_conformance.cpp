// Randomized conformance suite for the collective algorithm library.
//
// Every all-reduce algorithm must satisfy the same contract the seed's ring
// established, for every ReduceOp, world size, and vector size (including
// 0, 1, and sizes not divisible by P):
//
//   1. results are bitwise identical on every rank;
//   2. results match a sequential reference reduction (exactly for kMax,
//      whose combine is associative without rounding; within floating-point
//      reassociation tolerance for kSum/kAverage).
//
// The suite sweeps algorithm x op x P in {1,2,3,4,8} with deterministic
// pseudo-random sizes/values, plus hierarchical shapes (2x2, 2x4, 4x2) and
// the kAuto selector path.
//
// The compressed collectives (comm/codec.hpp) are held to the same contract
// on the same grid — codec x op x backend x P over the randomized sizes:
// cross-rank bitwise identity, bitwise equality with the replayed-codec
// reference (decode(encode(x_r)) reduced in rank order), and for the lossy
// codecs an analytic error bound against the exact reduction.  The plan's
// algorithm annotation is deliberately absent from the codec cells: the
// compressed path always ships via the fixed all-gather + rank-order decode,
// so the annotation shapes cost modeling only and cannot change the bytes
// (that invariance is the documented contract, not an omission).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <random>
#include <vector>

#include "comm/codec.hpp"
#include "comm/collectives.hpp"
#include "testsupport/backends.hpp"

namespace spdkfac::comm {
namespace {

std::vector<std::vector<double>> random_inputs(int world, std::size_t n,
                                               std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-10.0, 10.0);
  std::vector<std::vector<double>> inputs(world);
  for (auto& v : inputs) {
    v.resize(n);
    for (double& x : v) x = dist(rng);
  }
  return inputs;
}

std::vector<double> sequential_reference(
    const std::vector<std::vector<double>>& inputs, ReduceOp op) {
  std::vector<double> out = inputs[0];
  for (std::size_t r = 1; r < inputs.size(); ++r) {
    detail::accumulate(out, inputs[r], op);
  }
  detail::finalize(out, op, static_cast<int>(inputs.size()));
  return out;
}

/// Vector sizes exercised for world size P: the degenerate 0 and 1, sizes
/// straddling P (so segments go empty / uneven), and random sizes.
std::vector<std::size_t> sizes_for(int world, std::uint64_t seed) {
  std::vector<std::size_t> sizes{0, 1};
  if (world > 1) {
    sizes.push_back(static_cast<std::size_t>(world) - 1);
    sizes.push_back(static_cast<std::size_t>(world) + 1);  // not divisible
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> dist(2, 257);
  for (int i = 0; i < 4; ++i) {
    std::size_t n = dist(rng);
    if (world > 1 && n % world == 0) ++n;  // force uneven partitions
    sizes.push_back(n);
  }
  return sizes;
}

void expect_conformant(TransportKind kind, const Topology& topo,
                       AllReduceAlgo algo, ReduceOp op, std::size_t n,
                       std::uint64_t seed) {
  const int world = topo.world_size();
  const auto inputs = random_inputs(world, n, seed);
  const auto expected = sequential_reference(inputs, op);

  // launch_collect runs the ranks as threads (kInProcess) or forked
  // processes (kSocket) and ships each rank's result back —
  // the same conformance contract is held on every backend.
  const auto results =
      Cluster::launch_collect(kind, topo, [&](Communicator& comm) {
        std::vector<double> data = inputs[comm.rank()];
        comm.all_reduce(data, op, algo);
        return data;
      });

  const char* ctx_algo = to_string(algo);
  for (int r = 0; r < world; ++r) {
    // Bitwise identity across ranks: vector operator== compares exactly.
    EXPECT_EQ(results[r], results[0])
        << ctx_algo << " diverges on rank " << r << " (n=" << n << ")";
  }
  ASSERT_EQ(results[0].size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (op == ReduceOp::kMax) {
      // max is rounding-free: any association gives the exact same value.
      EXPECT_EQ(results[0][i], expected[i])
          << ctx_algo << " kMax mismatch at i=" << i << " (n=" << n << ")";
    } else {
      EXPECT_NEAR(results[0][i], expected[i], 1e-9)
          << ctx_algo << " mismatch at i=" << i << " (n=" << n << ")";
    }
  }
}

struct Case {
  AllReduceAlgo algo;
  int world;
  TransportKind kind = TransportKind::kInProcess;
};

class ConformanceFlat : public ::testing::TestWithParam<Case> {};

TEST_P(ConformanceFlat, RandomSizesAllOps) {
  const Case c = GetParam();
  SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(c.kind);
  const Topology topo = Topology::flat(c.world);
  std::uint64_t seed = 0xC0FFEE + 977 * c.world +
                       31 * static_cast<std::uint64_t>(c.algo);
  for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kAverage, ReduceOp::kMax}) {
    for (std::size_t n : sizes_for(c.world, ++seed)) {
      expect_conformant(c.kind, topo, c.algo, op, n, ++seed);
    }
  }
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string algo = to_string(info.param.algo);
  for (char& ch : algo) {
    if (ch == '-') ch = '_';
  }
  return algo + "_P" + std::to_string(info.param.world) + "_" +
         testsupport::backend_name(info.param.kind);
}

/// Every concrete algorithm plus the kAuto dispatch path.
std::vector<AllReduceAlgo> algos_under_test() {
  std::vector<AllReduceAlgo> algos(kAllReduceAlgos.begin(),
                                   kAllReduceAlgos.end());
  algos.push_back(AllReduceAlgo::kAuto);
  return algos;
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (AllReduceAlgo algo : algos_under_test()) {
    // Full world sweep in-process; the process-per-rank backend covers
    // P in {2, 3, 4} (the same algorithms over a real wire — forking 8
    // ranks per cell buys no additional coverage).
    for (int world : {1, 2, 3, 4, 8}) cases.push_back({algo, world});
    for (int world : {2, 3, 4}) {
      cases.push_back({algo, world, TransportKind::kSocket});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AlgoByWorld, ConformanceFlat,
                         ::testing::ValuesIn(all_cases()), case_name);

// ---------------------------------------------------------------------------
// Compressed-collective conformance (codec x op x backend x P)
// ---------------------------------------------------------------------------

constexpr double kTopKRatio = 0.05;

void expect_codec_conformant(TransportKind kind, const Topology& topo,
                             Codec codec, ReduceOp op, std::size_t n,
                             std::uint64_t seed) {
  const int world = topo.world_size();
  const auto inputs = random_inputs(world, n, seed);
  const auto exact = sequential_reference(inputs, op);

  // Replayed-codec reference: what the collective must equal *bitwise* —
  // each rank's contribution round-tripped through the codec, reduced in
  // rank order 0..P-1 (kNone degenerates to the sequential reference).
  std::vector<double> replayed;
  for (int r = 0; r < world; ++r) {
    std::vector<double> wire(wire_elements(codec, n, kTopKRatio));
    std::vector<double> rt(n);
    encode(codec, inputs[r], wire, kTopKRatio);
    decode(codec, wire, rt, kTopKRatio);
    if (r == 0) {
      replayed = std::move(rt);
    } else {
      detail::accumulate(replayed, rt, op);
    }
  }
  detail::finalize(replayed, op, world);

  const auto results =
      Cluster::launch_collect(kind, topo, [&](Communicator& comm) {
        std::vector<double> data = inputs[comm.rank()];
        std::vector<double> scratch(
            all_reduce_scratch_elements(codec, n, world, kTopKRatio));
        compressed_all_reduce(comm, data, codec, op, kTopKRatio, scratch);
        return data;
      });

  const char* ctx = to_string(codec);
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(results[r], results[0])
        << ctx << " diverges on rank " << r << " (n=" << n << ")";
  }
  EXPECT_EQ(results[0], replayed)
      << ctx << " differs from the replayed-codec reference (n=" << n << ")";

  // The lossless codec must equal the exact reduction; top-k loss is
  // unbounded here by design — error feedback accounts for it upstream.
  if (codec != Codec::kNone) return;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(results[0][i], exact[i]) << ctx << " at i=" << i;
  }
}

struct CodecCase {
  Codec codec;
  int world;
  TransportKind kind = TransportKind::kInProcess;
};

class CodecConformance : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecConformance, RandomSizesSumAndAverage) {
  const CodecCase c = GetParam();
  SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(c.kind);
  const Topology topo = Topology::flat(c.world);
  std::uint64_t seed = 0xC0DEC + 977 * static_cast<std::uint64_t>(c.world) +
                       31 * static_cast<std::uint64_t>(c.codec);
  for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kAverage}) {
    for (std::size_t n : sizes_for(c.world, ++seed)) {
      expect_codec_conformant(c.kind, topo, c.codec, op, n, ++seed);
    }
  }
}

std::vector<CodecCase> codec_cases() {
  std::vector<CodecCase> cases;
  for (Codec codec : {Codec::kNone, Codec::kTopK}) {
    for (int world : {1, 2, 4, 8}) cases.push_back({codec, world});
    for (int world : {2, 3}) {
      cases.push_back({codec, world, TransportKind::kSocket});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    CodecByWorld, CodecConformance, ::testing::ValuesIn(codec_cases()),
    [](const ::testing::TestParamInfo<CodecCase>& info) {
      return std::string(to_string(info.param.codec)) + "_P" +
             std::to_string(info.param.world) + "_" +
             testsupport::backend_name(info.param.kind);
    });

// The hierarchical algorithm on genuinely hierarchical shapes (and the
// other algorithms, which must ignore the shape and still be correct).
struct HierCase {
  int nodes;
  int gpus;
  TransportKind kind = TransportKind::kInProcess;
};

class ConformanceHierarchical : public ::testing::TestWithParam<HierCase> {};

TEST_P(ConformanceHierarchical, NodesByGpusAllAlgorithms) {
  const auto [nodes, gpus, kind] = GetParam();
  SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(kind);
  const Topology topo = Topology::multi_node(nodes, gpus);
  std::uint64_t seed = 0xBEEF + 101 * nodes + 7 * gpus;
  for (AllReduceAlgo algo : algos_under_test()) {
    for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kAverage, ReduceOp::kMax}) {
      for (std::size_t n : sizes_for(topo.world_size(), ++seed)) {
        expect_conformant(kind, topo, algo, op, n, ++seed);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConformanceHierarchical,
    ::testing::Values(HierCase{2, 2}, HierCase{2, 4}, HierCase{4, 2},
                      HierCase{2, 2, TransportKind::kSocket}),
    [](const auto& info) {
      return std::to_string(info.param.nodes) + "x" +
             std::to_string(info.param.gpus) + "_" +
             testsupport::backend_name(info.param.kind);
    });

// A topology whose world size disagrees with the cluster must degrade to
// flat inside the hierarchical algorithm, not crash or corrupt.
TEST(ConformanceEdge, HierarchicalWithMismatchedTopologyFallsBackToFlat) {
  const auto inputs = random_inputs(3, 17, 42);
  const auto expected = sequential_reference(inputs, ReduceOp::kSum);
  Cluster::launch(3, [&](Communicator& comm) {
    std::vector<double> data = inputs[comm.rank()];
    all_reduce_hierarchical(comm, data, ReduceOp::kSum,
                            Topology::multi_node(2, 4));  // world 8 != 3
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_NEAR(data[i], expected[i], 1e-9);
    }
  });
}

// Interleaving different algorithms in one session must not cross messages
// between operations (each algorithm drains everything it sends).
TEST(ConformanceEdge, MixedAlgorithmSequenceStaysCorrect) {
  const Topology topo = Topology::multi_node(2, 2);
  constexpr AllReduceAlgo kSequence[] = {
      AllReduceAlgo::kHalvingDoubling, AllReduceAlgo::kRing,
      AllReduceAlgo::kHierarchical,    AllReduceAlgo::kFlatTree,
      AllReduceAlgo::kAuto,            AllReduceAlgo::kHierarchical,
      AllReduceAlgo::kHalvingDoubling};
  Cluster::launch(topo, [&](Communicator& comm) {
    int round = 0;
    for (AllReduceAlgo algo : kSequence) {
      std::vector<double> data(13 + round, comm.rank() + round + 1.0);
      comm.all_reduce(data, ReduceOp::kSum, algo);
      const double expect = 4.0 * (round + 1.0) + 6.0;  // sum of rank+round+1
      for (double v : data) EXPECT_NEAR(v, expect, 1e-12);
      ++round;
    }
  });
}

// The selector itself: never worse than ring, latency-bound small messages
// avoid the ring, hierarchical shapes route large messages through the
// two-level algorithm.
TEST(AlgorithmSelector, ChosenCostNeverExceedsRing) {
  for (const Topology& topo :
       {Topology::flat(4), Topology::flat(6), Topology::flat(64),
        Topology::multi_node(2, 2), Topology::multi_node(8, 4)}) {
    const AlgorithmSelector sel(topo);
    for (std::size_t m = 1; m <= 100'000'000; m *= 10) {
      EXPECT_LE(sel.best_cost(m), sel.cost(AllReduceAlgo::kRing, m))
          << "topology " << topo.nodes << "x" << topo.gpus_per_node
          << " at m=" << m;
    }
  }
}

TEST(AlgorithmSelector, SwitchesAlgorithmsAcrossMessageSizes) {
  // Flat non-power-of-two: halving/doubling's fold penalty makes the ring
  // win at large m while log-depth wins at small m — a real crossover.
  const AlgorithmSelector flat(Topology::flat(12));
  EXPECT_EQ(flat.choose(1), AllReduceAlgo::kHalvingDoubling);
  EXPECT_EQ(flat.choose(100'000'000), AllReduceAlgo::kRing);

  // Hierarchical shape: small/medium messages keep their latencies on the
  // cheap intra-node links (two-level), huge messages fall back to a
  // bandwidth-optimal flat algorithm over the network.
  const AlgorithmSelector hier(Topology::multi_node(4, 8));
  EXPECT_EQ(hier.choose(1), AllReduceAlgo::kHierarchical);
  EXPECT_EQ(hier.choose(100'000), AllReduceAlgo::kHierarchical);
  const AllReduceAlgo huge = hier.choose(100'000'000);
  EXPECT_NE(huge, AllReduceAlgo::kHierarchical);
  EXPECT_LE(hier.cost(huge, 100'000'000),
            hier.cost(AllReduceAlgo::kRing, 100'000'000));
}

TEST(AlgorithmSelector, SingleRankIsFreeAndRing) {
  const AlgorithmSelector sel{AlgorithmSelector(Topology::flat(1))};
  EXPECT_EQ(sel.choose(1 << 20), AllReduceAlgo::kRing);
  EXPECT_EQ(sel.best_cost(1 << 20), 0.0);
}

TEST(AlgorithmSelector, FittedTermOverrideChangesChoice) {
  AlgorithmSelector sel(Topology::flat(8));
  // Pretend a fitted model found flat-tree to be free on this machine.
  sel.set_term(AllReduceAlgo::kFlatTree, LinkModel{0.0, 0.0});
  EXPECT_EQ(sel.choose(1 << 20), AllReduceAlgo::kFlatTree);
  EXPECT_EQ(sel.cost(AllReduceAlgo::kFlatTree, 123), 0.0);
}

}  // namespace
}  // namespace spdkfac::comm
