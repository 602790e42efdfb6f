// Work-stealing pool and ambient-context coverage: submission/stealing,
// the parallel_for chunking contract (bitwise determinism across pool
// sizes, nesting, caller participation), the member thread, and Context
// resolution.
#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "exec/context.hpp"

namespace spdkfac::exec {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // destructor drains the queues
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WorkerlessPoolRunsTasksOnItsMember) {
  int leftover = 0;
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.workers(), 0u);
    {
      const ThreadPool::Member member(pool);
      bool ran = false;
      pool.submit([&ran] { ran = true; });
      EXPECT_TRUE(ran);  // its only thread's own task: already done

      // Another thread's task waits for the member to run it.
      std::atomic<bool> done{false};
      std::thread::id ran_on;
      std::thread([&] {
        pool.submit([&] {
          ran_on = std::this_thread::get_id();
          done = true;
        });
      }).join();
      EXPECT_FALSE(done.load());
      pool.run_until(done);
      EXPECT_EQ(ran_on, std::this_thread::get_id());
    }
    // Queued after the member left: the destructor finishes it.
    pool.submit([&leftover] { ++leftover; });
    EXPECT_EQ(leftover, 0);
  }
  EXPECT_EQ(leftover, 1);
}

TEST(ThreadPool, TasksSubmittedFromWorkersAreStolen) {
  // One task fans out many more from inside the pool; all must complete
  // even though they land on the submitting worker's own deque first.
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    pool.submit([&] {
      for (int i = 0; i < 64; ++i) {
        pool.submit([&count] { count.fetch_add(1); });
      }
    });
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ParallelForChunkBoundariesIgnoreWorkerCount) {
  // The determinism contract: identical chunk boundaries for every pool
  // size, so disjoint-output bodies give bitwise-identical results.
  auto boundaries = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for(103, 10, [&](std::size_t b, std::size_t e) {
      std::lock_guard lock(mu);
      chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto serial = boundaries(0);
  EXPECT_EQ(boundaries(1), serial);
  EXPECT_EQ(boundaries(4), serial);
  ASSERT_EQ(serial.size(), 11u);  // ceil(103 / 10)
  EXPECT_EQ(serial.back().second, 103u);
}

TEST(ThreadPool, NestedParallelForMakesProgress) {
  // A pool task issuing its own parallel_for must not deadlock even when
  // every worker is busy: the caller claims chunks itself.
  ThreadPool pool(2);
  std::atomic<long> total{0};
  pool.parallel_for(8, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      pool.parallel_for(100, 9, [&](std::size_t b2, std::size_t e2) {
        total.fetch_add(static_cast<long>(e2 - b2));
      });
    }
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadPool, ZeroIterationsIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, 4, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Context, ResolvesOverrideThenWorkerThenSerial) {
  EXPECT_EQ(Context::current_pool(), nullptr);  // plain thread: serial
  ThreadPool pool(2);
  {
    Context ctx(&pool);
    EXPECT_EQ(Context::current_pool(), &pool);
    {
      Context serial(nullptr);  // forcing serial wins over the outer scope
      EXPECT_EQ(Context::current_pool(), nullptr);
    }
    EXPECT_EQ(Context::current_pool(), &pool);
  }
  EXPECT_EQ(Context::current_pool(), nullptr);

  // Worker threads ambiently belong to their pool, so kernels running as
  // pool tasks parallelize on it without any guard.
  std::atomic<ThreadPool*> seen{nullptr};
  pool.submit([&seen] { seen.store(Context::current_pool()); });
  while (seen.load() == nullptr) std::this_thread::yield();
  EXPECT_EQ(seen.load(), &pool);

  // A member thread resolves to its pool as well, an override still wins
  // over it, and leaving restores what the thread resolved to before —
  // also when memberships end out of order.
  ThreadPool other(1);
  {
    std::optional<ThreadPool::Member> outer(std::in_place, other);
    std::optional<ThreadPool::Member> inner(std::in_place, pool);
    EXPECT_EQ(Context::current_pool(), &pool);
    EXPECT_TRUE(pool.is_member());
    EXPECT_FALSE(other.is_member());
    EXPECT_THROW(ThreadPool::Member again(pool), std::logic_error);
    {
      Context serial(nullptr);
      EXPECT_EQ(Context::current_pool(), nullptr);
    }
    inner.reset();
    EXPECT_EQ(Context::current_pool(), &other);
    inner.emplace(pool);
    outer.reset();  // the shadowed membership ends first
    EXPECT_EQ(Context::current_pool(), &pool);
    inner.reset();
  }
  EXPECT_EQ(Context::current_pool(), nullptr);
  EXPECT_FALSE(pool.is_member());
}

TEST(ThreadPool, MemberParallelForUsesTheWorkers) {
  // Two chunks that each wait for the other to start finish only if a
  // worker runs one while the member runs the other.
  ThreadPool pool(1);
  const ThreadPool::Member member(pool);
  std::atomic<int> started{0};
  std::mutex mu;
  std::vector<std::thread::id> ran_on;
  pool.parallel_for(2, 1, [&](std::size_t, std::size_t) {
    {
      std::lock_guard lock(mu);
      ran_on.push_back(std::this_thread::get_id());
    }
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  ASSERT_EQ(ran_on.size(), 2u);
  EXPECT_NE(ran_on[0], ran_on[1]);
  EXPECT_TRUE(ran_on[0] == std::this_thread::get_id() ||
              ran_on[1] == std::this_thread::get_id());
}

TEST(Context, FreeParallelForRunsSeriallyWithoutPool) {
  std::vector<int> order;
  parallel_for(5, 2, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Context, ParallelKernelsBitwiseMatchSerial) {
  // The property the tensor layer builds on: a chunked sum of expensive
  // floating-point work, written to disjoint slots, is bitwise identical
  // under any pool.
  const std::size_t n = 10'000;
  auto run = [&](ThreadPool* pool) {
    std::vector<double> out(n);
    Context ctx(pool);
    parallel_for(n, 64, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        out[i] = std::sin(static_cast<double>(i)) * std::sqrt(i + 1.0);
      }
    });
    return out;
  };
  ThreadPool four(4);
  const auto serial = run(nullptr);
  const auto pooled = run(&four);
  EXPECT_EQ(serial, pooled);
}

}  // namespace
}  // namespace spdkfac::exec
