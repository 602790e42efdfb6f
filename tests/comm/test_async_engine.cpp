#include "comm/async_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "comm/cluster.hpp"
#include "exec/thread_pool.hpp"
#include "testsupport/backends.hpp"

namespace spdkfac::comm {
namespace {

TEST(CommHandle, DefaultIsInvalidAndWaitIsNoop) {
  CommHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(handle.done());
  handle.wait();  // must not hang or crash
}

TEST(AsyncEngine, AllReduceMatchesSyncResult) {
  Cluster::launch(4, [](Communicator& comm) {
    AsyncCommEngine engine(comm);
    std::vector<double> data(100, comm.rank() + 1.0);
    auto handle = engine.all_reduce_async(data, ReduceOp::kSum);
    handle.wait();
    EXPECT_TRUE(handle.done());
    for (double v : data) EXPECT_NEAR(v, 10.0, 1e-12);
  });
}

TEST(AsyncEngine, BroadcastDeliversRootBuffer) {
  Cluster::launch(3, [](Communicator& comm) {
    AsyncCommEngine engine(comm);
    std::vector<double> data(8, comm.rank() == 2 ? 3.25 : 0.0);
    engine.broadcast_async(data, 2).wait();
    for (double v : data) EXPECT_EQ(v, 3.25);
  });
}

TEST(AsyncEngine, OpsExecuteInSubmissionOrder) {
  Cluster::launch(2, [](Communicator& comm) {
    AsyncCommEngine engine(comm);
    // Two all-reduces on the same buffer: if order were violated the
    // intermediate expectation would fail.
    std::vector<double> data(16, 1.0);
    auto h1 = engine.all_reduce_async(data, ReduceOp::kSum);  // -> 2
    auto h2 = engine.all_reduce_async(data, ReduceOp::kSum);  // -> 4
    h2.wait();
    EXPECT_TRUE(h1.done());  // FIFO: op1 finished before op2
    for (double v : data) EXPECT_EQ(v, 4.0);
  });
}

TEST(AsyncEngine, WaitAllDrainsQueue) {
  Cluster::launch(3, [](Communicator& comm) {
    AsyncCommEngine engine(comm);
    std::vector<std::vector<double>> buffers(10);
    for (int i = 0; i < 10; ++i) {
      buffers[i].assign(32, 1.0);
      engine.all_reduce_async(buffers[i], ReduceOp::kSum,
                              "op" + std::to_string(i));
    }
    engine.wait_all();
    EXPECT_EQ(engine.completed(), 10u);
    for (const auto& b : buffers) {
      for (double v : b) EXPECT_EQ(v, 3.0);
    }
  });
}

TEST(AsyncEngine, RecordsCaptureEveryOp) {
  Cluster::launch(2, [](Communicator& comm) {
    AsyncCommEngine engine(comm);
    std::vector<double> a(4, 1.0), b(6, 2.0);
    engine.all_reduce_async(a, ReduceOp::kSum, "first");
    engine.broadcast_async(b, 0, "second");
    engine.wait_all();
    const auto records = engine.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].name, "first");
    EXPECT_EQ(records[0].elements, 4u);
    EXPECT_EQ(records[1].name, "second");
    EXPECT_LE(records[0].end_s, records[1].end_s + 1e-12);
    EXPECT_GE(records[0].end_s, records[0].start_s);
    EXPECT_GE(records[0].start_s, records[0].submit_s - 1e-9);
  });
}

TEST(AsyncEngine, SubmitRunsArbitraryFunction) {
  Cluster::launch(2, [](Communicator& comm) {
    AsyncCommEngine engine(comm);
    std::atomic<int> ran{0};
    auto h = engine.submit(
        [&ran](Communicator& c) {
          ran.fetch_add(1 + c.rank() * 0);  // touches the communicator
        },
        "custom");
    h.wait();
    EXPECT_EQ(ran.load(), 1);
  });
}

TEST(AsyncEngine, OverlapsCallerComputation) {
  // The main thread keeps working while a large all-reduce runs in the
  // background; the handle must not be required for progress.
  Cluster::launch(2, [](Communicator& comm) {
    AsyncCommEngine engine(comm);
    std::vector<double> data(1 << 18, 1.0);
    auto handle = engine.all_reduce_async(data, ReduceOp::kSum);
    double acc = 0.0;
    for (int i = 0; i < 1000; ++i) acc += std::sqrt(static_cast<double>(i));
    EXPECT_GT(acc, 0.0);
    handle.wait();
    EXPECT_EQ(data[0], 2.0);
  });
}

TEST(AsyncEngine, OpBlockedOnPeerLeavesComputePoolFree) {
  // A collective waits for its peers on the engine's own pump thread,
  // never on a compute thread: while rank 0's all-reduce waits for rank 1,
  // a 1-worker compute pool on rank 0 still runs a task.
  std::atomic<bool> ran_while_blocked{false}, go{false};
  Cluster::launch(2, [&](Communicator& comm) {
    AsyncCommEngine engine(comm);
    std::vector<double> data(4, 1.0);
    if (comm.rank() == 0) {
      exec::ThreadPool pool(1);
      const CommHandle handle = engine.all_reduce_async(data, ReduceOp::kSum);
      std::atomic<bool> ran{false};
      pool.submit([&ran] { ran = true; });
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!ran.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      ran_while_blocked = ran.load() && !handle.done();
      go = true;
      handle.wait();
    } else {
      while (!go.load()) std::this_thread::yield();
      engine.all_reduce_async(data, ReduceOp::kSum).wait();
    }
    EXPECT_EQ(data[0], 2.0);
  });
  EXPECT_TRUE(ran_while_blocked.load());
}

TEST(AsyncEngine, DestructorJoinsCleanly) {
  // Engines constructed and destroyed repeatedly must not leak or hang.
  Cluster::launch(2, [](Communicator& comm) {
    for (int i = 0; i < 5; ++i) {
      AsyncCommEngine engine(comm);
      std::vector<double> data(8, 1.0);
      engine.all_reduce_async(data, ReduceOp::kSum).wait();
    }
  });
}

TEST(AsyncEngine, ManySmallOpsAcrossWorldSizes) {
  for (int world : {2, 3, 5}) {
    Cluster::launch(world, [world](Communicator& comm) {
      AsyncCommEngine engine(comm);
      std::vector<std::vector<double>> bufs(50);
      std::vector<CommHandle> handles(50);
      for (int i = 0; i < 50; ++i) {
        bufs[i].assign(i + 1, 1.0);
        handles[i] = engine.all_reduce_async(bufs[i], ReduceOp::kSum);
      }
      for (auto& h : handles) h.wait();
      for (int i = 0; i < 50; ++i) {
        for (double v : bufs[i]) EXPECT_EQ(v, static_cast<double>(world));
      }
    });
  }
}

// ---------------------------------------------------------------------------
// The engine over every transport backend: the Communicator it pumps is
// backend-agnostic, so the async semantics (results, FIFO order, wait_all)
// must hold identically when the ranks are real processes on a real wire.
// ---------------------------------------------------------------------------

class AsyncEngineBackend : public ::testing::TestWithParam<TransportKind> {
 protected:
  void SetUp() override {
    SPDKFAC_SKIP_MULTIPROCESS_UNDER_TSAN(GetParam());
  }
};

TEST_P(AsyncEngineBackend, AllReduceMatchesSyncResult) {
  const auto results = Cluster::launch_collect(
      GetParam(), Topology::flat(4), [](Communicator& comm) {
        AsyncCommEngine engine(comm);
        std::vector<double> data(100, comm.rank() + 1.0);
        auto handle = engine.all_reduce_async(data, ReduceOp::kSum);
        handle.wait();
        return data;
      });
  for (const auto& rank_result : results) {
    ASSERT_EQ(rank_result.size(), 100u);
    for (double v : rank_result) EXPECT_NEAR(v, 10.0, 1e-12);
  }
}

TEST_P(AsyncEngineBackend, BroadcastDeliversRootBuffer) {
  const auto results = Cluster::launch_collect(
      GetParam(), Topology::flat(3), [](Communicator& comm) {
        AsyncCommEngine engine(comm);
        std::vector<double> data(8, comm.rank() == 2 ? 3.25 : 0.0);
        engine.broadcast_async(data, 2).wait();
        return data;
      });
  for (const auto& rank_result : results) {
    for (double v : rank_result) EXPECT_EQ(v, 3.25);
  }
}

TEST_P(AsyncEngineBackend, OpsExecuteInSubmissionOrderAndDrain) {
  const auto results = Cluster::launch_collect(
      GetParam(), Topology::flat(2), [](Communicator& comm) {
        AsyncCommEngine engine(comm);
        std::vector<double> data(16, 1.0);
        auto h1 = engine.all_reduce_async(data, ReduceOp::kSum);  // -> 2
        auto h2 = engine.all_reduce_async(data, ReduceOp::kSum);  // -> 4
        h2.wait();
        const double fifo = h1.done() ? 1.0 : 0.0;  // op1 before op2
        engine.wait_all();
        return std::vector<double>{fifo,
                                   static_cast<double>(engine.completed()),
                                   data[0]};
      });
  for (const auto& rank_result : results) {
    ASSERT_EQ(rank_result.size(), 3u);
    EXPECT_EQ(rank_result[0], 1.0);  // FIFO held
    EXPECT_EQ(rank_result[1], 2.0);  // both ops completed
    EXPECT_EQ(rank_result[2], 4.0);  // second reduce saw the first's result
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, AsyncEngineBackend,
    ::testing::ValuesIn(testsupport::kAllTransports),
    [](const ::testing::TestParamInfo<TransportKind>& info) {
      return testsupport::backend_name(info.param);
    });

}  // namespace
}  // namespace spdkfac::comm
