#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <random>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/collectives.hpp"

namespace spdkfac::comm {
namespace {

TEST(Cluster, RejectsNonPositiveSize) {
  EXPECT_THROW(Cluster(0), std::invalid_argument);
  EXPECT_THROW(Cluster(-3), std::invalid_argument);
}

TEST(Cluster, RunsEveryRankExactlyOnce) {
  std::atomic<int> count{0};
  std::array<std::atomic<int>, 5> seen{};
  Cluster::launch(5, [&](Communicator& comm) {
    count.fetch_add(1);
    seen[comm.rank()].fetch_add(1);
    EXPECT_EQ(comm.size(), 5);
  });
  EXPECT_EQ(count.load(), 5);
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(Cluster, PropagatesWorkerException) {
  EXPECT_THROW(Cluster::launch(3,
                               [](Communicator& comm) {
                                 if (comm.rank() == 1) {
                                   throw std::runtime_error("boom");
                                 }
                               }),
               std::runtime_error);
}

TEST(PointToPoint, SendRecvDeliversPayload) {
  Cluster::launch(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> msg{1.0, 2.0, 3.0};
      comm.send(1, msg);
    } else {
      std::vector<double> out(3);
      comm.recv(0, out);
      EXPECT_EQ(out, (std::vector<double>{1.0, 2.0, 3.0}));
    }
  });
}

TEST(PointToPoint, MessagesFromOneSenderStayOrdered) {
  Cluster::launch(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        std::vector<double> msg{static_cast<double>(i)};
        comm.send(1, msg);
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        std::vector<double> out(1);
        comm.recv(0, out);
        EXPECT_EQ(out[0], static_cast<double>(i));
      }
    }
  });
}

TEST(PointToPoint, LengthMismatchThrows) {
  EXPECT_THROW(Cluster::launch(2,
                               [](Communicator& comm) {
                                 if (comm.rank() == 0) {
                                   std::vector<double> msg{1.0, 2.0};
                                   comm.send(1, msg);
                                 } else {
                                   std::vector<double> out(3);
                                   comm.recv(0, out);  // wrong size
                                 }
                               }),
               std::runtime_error);
}

TEST(PointToPoint, BadRankThrows) {
  Cluster::launch(1, [](Communicator& comm) {
    std::vector<double> v(1);
    EXPECT_THROW(comm.send(5, v), std::invalid_argument);
    EXPECT_THROW(comm.recv(-1, v), std::invalid_argument);
  });
}

class AllReduceWorldSize : public ::testing::TestWithParam<int> {};

TEST_P(AllReduceWorldSize, SumMatchesSerialReduction) {
  const int world = GetParam();
  const std::size_t n = 257;  // not divisible by world: uneven segments
  Cluster::launch(world, [&](Communicator& comm) {
    std::vector<double> data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = static_cast<double>(comm.rank() + 1) * (i + 1);
    }
    comm.all_reduce(data, ReduceOp::kSum);
    const double rank_sum = world * (world + 1) / 2.0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(data[i], rank_sum * (i + 1), 1e-9) << "i=" << i;
    }
  });
}

TEST_P(AllReduceWorldSize, AverageDividesByWorld) {
  const int world = GetParam();
  Cluster::launch(world, [&](Communicator& comm) {
    std::vector<double> data(64, static_cast<double>(comm.rank()));
    comm.all_reduce(data, ReduceOp::kAverage);
    const double expect = (world - 1) / 2.0;
    for (double v : data) EXPECT_NEAR(v, expect, 1e-12);
  });
}

TEST_P(AllReduceWorldSize, MaxSelectsMaximum) {
  const int world = GetParam();
  Cluster::launch(world, [&](Communicator& comm) {
    std::vector<double> data{static_cast<double>(comm.rank()),
                             static_cast<double>(-comm.rank())};
    comm.all_reduce(data, ReduceOp::kMax);
    EXPECT_EQ(data[0], static_cast<double>(world - 1));
    EXPECT_EQ(data[1], 0.0);
  });
}

TEST_P(AllReduceWorldSize, ResultBitwiseIdenticalAcrossRanks) {
  const int world = GetParam();
  const std::size_t n = 101;
  std::vector<std::vector<double>> results(world);
  Cluster::launch(world, [&](Communicator& comm) {
    std::vector<double> data(n);
    // Values whose sum order matters in floating point.
    std::mt19937_64 rng(1234 + comm.rank());
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (double& v : data) v = dist(rng);
    comm.all_reduce(data, ReduceOp::kAverage);
    results[comm.rank()] = data;
  });
  for (int r = 1; r < world; ++r) {
    EXPECT_EQ(results[r], results[0]) << "rank " << r;
  }
}

TEST_P(AllReduceWorldSize, EmptyVectorIsNoop) {
  Cluster::launch(GetParam(), [](Communicator& comm) {
    std::vector<double> data;
    comm.all_reduce(data, ReduceOp::kSum);
    EXPECT_TRUE(data.empty());
  });
}

TEST_P(AllReduceWorldSize, VectorSmallerThanWorldStillReduces) {
  const int world = GetParam();
  Cluster::launch(world, [&](Communicator& comm) {
    std::vector<double> data{1.0};
    comm.all_reduce(data, ReduceOp::kSum);
    EXPECT_NEAR(data[0], static_cast<double>(world), 1e-12);
  });
}

// The ring's association, pinned bit for bit: segment s (of the even
// partition) is summed in ring order starting after its owner,
// ((x_{s+1} + x_{s+2}) + ...) + x_s, and kAverage multiplies that chain
// by 1/P once.  Every loss fingerprint depends on this order; the
// conformance suites only compare within a tolerance.
TEST_P(AllReduceWorldSize, RingSumsEachSegmentInRingOrderBitwise) {
  const int world = GetParam();
  const std::size_t n = 103;  // not divisible by most worlds
  std::vector<std::vector<double>> inputs(world, std::vector<double>(n));
  for (int r = 0; r < world; ++r) {
    std::mt19937_64 rng(4321 + r);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (double& v : inputs[r]) v = dist(rng);
  }
  // Segment of element i under the ring's even partition.
  std::vector<int> segment_of;
  for (int s = 0; s < world; ++s) {
    const std::size_t extra = static_cast<std::size_t>(s) < n % world ? 1 : 0;
    segment_of.insert(segment_of.end(), n / world + extra, s);
  }
  for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kAverage, ReduceOp::kMax}) {
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int s = segment_of[i];
      double chain = inputs[(s + 1) % world][i];
      for (int k = 2; k <= world; ++k) {
        const double x = inputs[(s + k) % world][i];
        chain = op == ReduceOp::kMax ? std::max(chain, x) : chain + x;
      }
      want[i] = op == ReduceOp::kAverage ? chain * (1.0 / world) : chain;
    }
    std::vector<std::vector<double>> results(world);
    Cluster::launch(world, [&](Communicator& comm) {
      std::vector<double> data = inputs[comm.rank()];
      comm.all_reduce(data, op);
      results[comm.rank()] = data;
    });
    for (int r = 0; r < world; ++r) {
      ASSERT_EQ(results[r].size(), n);
      EXPECT_EQ(std::memcmp(results[r].data(), want.data(),
                            n * sizeof(double)),
                0)
          << "rank " << r << " op " << static_cast<int>(op);
    }
  }
}

// With one GPU per node the hierarchical algorithm is the leader ring
// alone, so it must carry the flat ring's bits, kAverage included.
TEST_P(AllReduceWorldSize, HierarchicalOneGpuPerNodeIsTheRingBitwise) {
  const int world = GetParam();
  const Topology topo = Topology::multi_node(world, 1);
  for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kAverage, ReduceOp::kMax}) {
    Cluster::launch(world, [&](Communicator& comm) {
      std::vector<double> ring(97);
      std::mt19937_64 rng(99 + comm.rank());
      std::uniform_real_distribution<double> dist(-1.0, 1.0);
      for (double& v : ring) v = dist(rng);
      std::vector<double> hier = ring;
      comm.all_reduce(ring, op, AllReduceAlgo::kRing);
      all_reduce_hierarchical(comm, hier, op, topo);
      EXPECT_EQ(std::memcmp(ring.data(), hier.data(),
                            ring.size() * sizeof(double)),
                0)
          << "rank " << comm.rank() << " op " << static_cast<int>(op);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, AllReduceWorldSize,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16));

class BroadcastWorldSize : public ::testing::TestWithParam<int> {};

TEST_P(BroadcastWorldSize, EveryRankReceivesRootData) {
  const int world = GetParam();
  for (int root = 0; root < world; ++root) {
    Cluster::launch(world, [&](Communicator& comm) {
      std::vector<double> data(33, comm.rank() == root ? 42.0 : -1.0);
      comm.broadcast(data, root);
      for (double v : data) EXPECT_EQ(v, 42.0);
    });
  }
}

TEST_P(BroadcastWorldSize, BadRootThrows) {
  Cluster::launch(GetParam(), [](Communicator& comm) {
    std::vector<double> data(1);
    EXPECT_THROW(comm.broadcast(data, comm.size()), std::invalid_argument);
  });
}

INSTANTIATE_TEST_SUITE_P(Worlds, BroadcastWorldSize,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(Barrier, OrdersSideEffects) {
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  Cluster::launch(6, [&](Communicator& comm) {
    before.fetch_add(1);
    comm.barrier();
    if (before.load() != 6) violated.store(true);
  });
  EXPECT_FALSE(violated.load());
}

// Randomized collective stress: interleave sum all-reduce / broadcast /
// max all-reduce rounds with random (but rank-agreed) sizes and verify
// against serially computed expectations.
class CollectiveStress : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveStress, MixedOpSequencesStayCorrect) {
  const int world = 3 + GetParam() % 3;  // 3..5 workers
  std::mt19937_64 plan_rng(GetParam() * 131 + 7);
  struct Op {
    int kind;  // 0 sum all-reduce, 1 broadcast, 2 max all-reduce
    std::size_t size;
    int root;
  };
  std::vector<Op> ops;
  std::uniform_int_distribution<int> kind(0, 2);
  std::uniform_int_distribution<std::size_t> size(1, 300);
  std::uniform_int_distribution<int> root(0, world - 1);
  for (int i = 0; i < 25; ++i) {
    ops.push_back({kind(plan_rng), size(plan_rng), root(plan_rng)});
  }

  comm::Cluster::launch(world, [&](comm::Communicator& comm) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      std::vector<double> data(op.size);
      for (std::size_t j = 0; j < op.size; ++j) {
        data[j] = (comm.rank() + 1) * 1000.0 + i * 10.0 + j;
      }
      switch (op.kind) {
        case 0: {
          comm.all_reduce(data, ReduceOp::kSum);
          const double rank_sum = world * (world + 1) / 2.0;
          for (std::size_t j = 0; j < op.size; ++j) {
            EXPECT_NEAR(data[j], rank_sum * 1000.0 + world * (i * 10.0 + j),
                        1e-9);
          }
          break;
        }
        case 1: {
          comm.broadcast(data, op.root);
          for (std::size_t j = 0; j < op.size; ++j) {
            EXPECT_EQ(data[j], (op.root + 1) * 1000.0 + i * 10.0 + j);
          }
          break;
        }
        case 2: {
          // The highest rank contributes every element's maximum.
          comm.all_reduce(data, ReduceOp::kMax);
          for (std::size_t j = 0; j < op.size; ++j) {
            EXPECT_EQ(data[j], world * 1000.0 + i * 10.0 + j);
          }
          break;
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectiveStress, ::testing::Range(0, 6));

TEST(Collectives, LargeWorldSixteenWorkers) {
  Cluster::launch(16, [](Communicator& comm) {
    std::vector<double> data(1000, comm.rank() + 1.0);
    comm.all_reduce(data, ReduceOp::kSum);
    for (double v : data) EXPECT_NEAR(v, 136.0, 1e-9);  // 1+..+16
    std::vector<double> b(64, comm.rank() == 13 ? 3.5 : 0.0);
    comm.broadcast(b, 13);
    for (double v : b) EXPECT_EQ(v, 3.5);
  });
}

TEST(Collectives, RepeatedRoundsStayConsistent) {
  // Regression guard: channel reuse across many collective rounds must not
  // interleave messages between operations.
  Cluster::launch(3, [](Communicator& comm) {
    for (int round = 0; round < 50; ++round) {
      std::vector<double> data(17, comm.rank() + round);
      comm.all_reduce(data, ReduceOp::kSum);
      const double expect = 3.0 * round + 3.0;  // 0+1+2 + 3*round
      for (double v : data) EXPECT_NEAR(v, expect, 1e-12);
      std::vector<double> b(5, comm.rank() == round % 3 ? round : -1);
      comm.broadcast(b, round % 3);
      for (double v : b) EXPECT_EQ(v, round);
    }
  });
}

}  // namespace
}  // namespace spdkfac::comm
