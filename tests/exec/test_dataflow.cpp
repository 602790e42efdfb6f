// DataflowExecutor coverage: dependency release, external gates, the
// ordered submission lane under adversarial completion order, the member
// thread's wait (also as a workerless pool's only thread), failing nodes,
// graph reuse and validation.
#include "exec/dataflow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"

namespace spdkfac::exec {
namespace {

using Node = DataflowExecutor::Node;
using NodeKind = DataflowExecutor::NodeKind;

/// Thread-safe trace of execution events.
struct Trace {
  std::mutex mu;
  std::vector<std::string> events;
  void add(std::string e) {
    std::lock_guard lock(mu);
    events.push_back(std::move(e));
  }
  std::vector<std::string> get() {
    std::lock_guard lock(mu);
    return events;
  }
};

Node compute(Trace& trace, const std::string& name, std::vector<int> deps,
             int external = 0) {
  Node n;
  n.kind = NodeKind::kCompute;
  n.deps = std::move(deps);
  n.external_deps = external;
  n.work = [&trace, name] { trace.add(name); };
  return n;
}

Node submission(Trace& trace, const std::string& name, std::vector<int> deps,
                int external = 0) {
  Node n;
  n.kind = NodeKind::kSubmission;
  n.deps = std::move(deps);
  n.external_deps = external;
  n.work = [&trace, name] { trace.add(name); };
  return n;
}

TEST(Dataflow, RespectsDependencies) {
  // On the workers of a pool, and on the member of a workerless one.
  for (const std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
    ThreadPool pool(workers);
    std::optional<ThreadPool::Member> member;
    if (workers == 0) member.emplace(pool);
    Trace trace;
    std::vector<Node> nodes;
    nodes.push_back(compute(trace, "a", {}));
    nodes.push_back(compute(trace, "b", {0}));
    nodes.push_back(compute(trace, "c", {0, 1}));
    DataflowExecutor ex;
    ex.begin(std::move(nodes), {}, pool);
    ex.wait();
    EXPECT_TRUE(ex.idle());
    EXPECT_EQ(trace.get(), (std::vector<std::string>{"a", "b", "c"}));
  }
}

TEST(Dataflow, ExternalGatesHoldBackReadyNodes) {
  ThreadPool pool(1);
  Trace trace;
  std::vector<Node> nodes;
  nodes.push_back(compute(trace, "gated", {}, /*external=*/2));
  DataflowExecutor ex;
  ex.begin(std::move(nodes), {}, pool);
  EXPECT_FALSE(ex.idle());
  EXPECT_TRUE(trace.get().empty());
  ex.satisfy(0);
  EXPECT_TRUE(trace.get().empty());  // one of two gates released
  ex.satisfy(0);
  ex.wait();
  EXPECT_EQ(trace.get(), (std::vector<std::string>{"gated"}));
}

TEST(Dataflow, LaneFiresInOrderRegardlessOfReadiness) {
  // Submission s1 becomes dep-ready *before* s0; the lane must still fire
  // s0 first.  Retirement flows through complete(), out of order.
  ThreadPool pool(1);
  Trace trace;
  std::vector<Node> nodes;
  nodes.push_back(submission(trace, "s0", {}, /*external=*/1));  // 0
  nodes.push_back(submission(trace, "s1", {}));                  // 1
  nodes.push_back(compute(trace, "after", {0, 1}));              // 2
  DataflowExecutor ex;
  ex.begin(std::move(nodes), {0, 1}, pool);
  EXPECT_TRUE(trace.get().empty());  // s1 ready but behind s0 in the lane
  ex.satisfy(0);
  EXPECT_EQ(trace.get(), (std::vector<std::string>{"s0", "s1"}));
  ex.complete(1);  // async ops may finish out of submission order
  ex.complete(0);
  ex.wait();
  EXPECT_EQ(trace.get(), (std::vector<std::string>{"s0", "s1", "after"}));
}

TEST(Dataflow, MixedGraphDrivesComputeBetweenSubmissions) {
  // compute -> submission -> (completion) -> compute chain, pooled.
  ThreadPool pool(2);
  Trace trace;
  std::vector<Node> nodes;
  nodes.push_back(compute(trace, "pack", {}));           // 0
  nodes.push_back(submission(trace, "allreduce", {0}));  // 1
  nodes.push_back(compute(trace, "unpack", {1}));        // 2
  DataflowExecutor ex;
  ex.begin(std::move(nodes), {1}, pool);
  // Emulate the engine: wait until the submission fired, then complete it.
  while (trace.get().size() < 2) {}
  ex.complete(1);
  ex.wait();
  EXPECT_EQ(trace.get(),
            (std::vector<std::string>{"pack", "allreduce", "unpack"}));
}

TEST(Dataflow, GraphsAreReusableAfterDrain) {
  ThreadPool pool(1);
  Trace trace;
  DataflowExecutor ex;
  for (int round = 0; round < 3; ++round) {
    // Two steps: `"r" + std::to_string(...)` trips GCC 12's bogus
    // -Wrestrict (GCC PR 105329).
    std::string name = "r";
    name += std::to_string(round);
    std::vector<Node> nodes;
    nodes.push_back(compute(trace, name, {}));
    ex.begin(std::move(nodes), {}, pool);
    ex.wait();
  }
  EXPECT_EQ(trace.get(), (std::vector<std::string>{"r0", "r1", "r2"}));
}

TEST(Dataflow, BeginValidatesGraph) {
  ThreadPool pool(1);
  Trace trace;
  DataflowExecutor ex;

  std::vector<Node> dangling;
  dangling.push_back(compute(trace, "x", {5}));
  EXPECT_THROW(ex.begin(std::move(dangling), {}, pool),
               std::invalid_argument);

  std::vector<Node> missing_lane;
  missing_lane.push_back(submission(trace, "s", {}, 1));
  EXPECT_THROW(ex.begin(std::move(missing_lane), {}, pool),
               std::invalid_argument);

  std::vector<Node> not_submission;
  not_submission.push_back(compute(trace, "c", {}, 1));
  EXPECT_THROW(ex.begin(std::move(not_submission), {0}, pool),
               std::invalid_argument);
}

TEST(Dataflow, BeginRefusesWhileInFlight) {
  ThreadPool pool(1);
  Trace trace;
  DataflowExecutor ex;
  std::vector<Node> nodes;
  nodes.push_back(compute(trace, "held", {}, /*external=*/1));
  ex.begin(std::move(nodes), {}, pool);
  std::vector<Node> next;
  next.push_back(compute(trace, "next", {}));
  EXPECT_THROW(ex.begin(std::move(next), {}, pool), std::logic_error);
  ex.satisfy(0);
  ex.wait();
}

TEST(Dataflow, WideFanOutRetiresEverything) {
  // 1 root -> 64 children -> 1 join, on a small pool; exercises concurrent
  // retire paths.
  ThreadPool pool(3);
  Trace trace;
  std::atomic<int> children{0};
  std::vector<Node> nodes(66);
  nodes[0] = compute(trace, "root", {});
  std::vector<int> all_children;
  for (int i = 1; i <= 64; ++i) {
    nodes[i].kind = NodeKind::kCompute;
    nodes[i].deps = {0};
    nodes[i].work = [&children] { children.fetch_add(1); };
    all_children.push_back(i);
  }
  nodes[65] = compute(trace, "join", all_children);
  DataflowExecutor ex;
  ex.begin(std::move(nodes), {}, pool);
  ex.wait();
  EXPECT_EQ(children.load(), 64);
  EXPECT_EQ(trace.get(), (std::vector<std::string>{"root", "join"}));
}

TEST(Dataflow, MemberRunsQueuedTasksWhileWaiting) {
  // The member is one of the pool's compute threads: with the only worker
  // held busy, wait() on the member must run the graph itself.
  ThreadPool pool(1);
  const ThreadPool::Member member(pool);
  std::atomic<bool> worker_busy{false}, release{false};
  pool.submit([&] {
    worker_busy = true;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!release.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  while (!worker_busy.load()) std::this_thread::yield();

  std::mutex mu;
  std::vector<std::thread::id> ran_on;
  std::vector<Node> nodes(3);
  for (int i = 0; i < 3; ++i) {
    nodes[i].kind = NodeKind::kCompute;
    if (i > 0) nodes[i].deps = {i - 1};
    nodes[i].work = [&] {
      std::lock_guard lock(mu);
      ran_on.push_back(std::this_thread::get_id());
    };
  }
  DataflowExecutor ex;
  ex.begin(std::move(nodes), {}, pool);
  ex.wait();
  release = true;
  EXPECT_TRUE(ex.idle());
  ASSERT_EQ(ran_on.size(), 3u);
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(Dataflow, WorkerlessPoolRunsEveryNodeOnItsMember) {
  // The member is a workerless pool's only compute thread.  A node it
  // releases itself runs before satisfy() returns; one another thread
  // releases (an engine completion on the pump) waits for its wait().
  ThreadPool pool(0);
  const ThreadPool::Member member(pool);
  std::mutex mu;
  std::vector<std::thread::id> ran_on;
  const auto record = [&] {
    std::lock_guard lock(mu);
    ran_on.push_back(std::this_thread::get_id());
  };
  std::vector<Node> nodes(3);
  nodes[0].kind = NodeKind::kCompute;
  nodes[0].external_deps = 1;
  nodes[0].work = record;
  nodes[1].kind = NodeKind::kSubmission;
  nodes[1].deps = {0};
  nodes[1].work = [] {};
  nodes[2].kind = NodeKind::kCompute;
  nodes[2].deps = {1};
  nodes[2].work = record;
  DataflowExecutor ex;
  ex.begin(std::move(nodes), {1}, pool);
  ex.satisfy(0);
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(ran_on.size(), 1u);  // ran inline
  }
  std::thread([&ex] { ex.complete(1); }).join();
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(ran_on.size(), 1u);  // queued for the member
  }
  ex.wait();
  EXPECT_TRUE(ex.idle());
  ASSERT_EQ(ran_on.size(), 2u);
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(Dataflow, ThrowingComputeNodeAbortsTheGraph) {
  // On the workers, on the member, or on the member of a workerless pool:
  // a compute node's exception poisons the graph, its successors never
  // run, wait() rethrows it on the waiting thread, and the executor stays
  // reusable.
  enum class Mode { kPooled, kMember, kOnlyMember };
  for (const Mode mode : {Mode::kPooled, Mode::kMember, Mode::kOnlyMember}) {
    ThreadPool pool(mode == Mode::kOnlyMember ? 0 : 2);
    std::optional<ThreadPool::Member> member;
    if (mode != Mode::kPooled) member.emplace(pool);
    Trace trace;
    std::vector<Node> nodes;
    nodes.push_back(compute(trace, "a", {}));
    nodes[0].work = [] { throw std::domain_error("not positive definite"); };
    nodes.push_back(compute(trace, "b", {0}));
    DataflowExecutor ex;
    ex.begin(std::move(nodes), {}, pool);
    EXPECT_THROW(ex.wait(), std::domain_error);
    EXPECT_TRUE(ex.idle());
    EXPECT_TRUE(trace.get().empty());

    std::vector<Node> next;
    next.push_back(compute(trace, "c", {}));
    ex.begin(std::move(next), {}, pool);
    ex.wait();
    EXPECT_EQ(trace.get(), (std::vector<std::string>{"c"}));
  }
}

TEST(Dataflow, ObserverReportsEveryComputeNodeWithItsDuration) {
  // The observer is the profiling tap: once per kCompute node, after its
  // work, with a non-negative duration — on the workers and on a workerless
  // pool's member alike.  Submission and noop nodes are never reported.
  for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    Trace trace;
    DataflowExecutor ex;
    std::mutex mu;
    std::vector<std::pair<int, double>> observed;
    ex.set_observer([&](int id, double seconds) {
      std::lock_guard lock(mu);
      observed.emplace_back(id, seconds);
    });

    std::vector<Node> nodes(3);
    nodes[0] = compute(trace, "a", {});
    nodes[1].kind = NodeKind::kNoop;
    nodes[1].deps = {0};
    nodes[2] = compute(trace, "b", {1});

    ThreadPool pool(workers);
    std::optional<ThreadPool::Member> member;
    if (workers == 0) member.emplace(pool);
    ex.begin(std::move(nodes), {}, pool);
    ex.wait();

    std::lock_guard lock(mu);
    ASSERT_EQ(observed.size(), 2u) << workers << " workers";
    EXPECT_EQ(observed[0].first, 0);
    EXPECT_EQ(observed[1].first, 2);
    for (const auto& [id, seconds] : observed) {
      EXPECT_GE(seconds, 0.0) << "node " << id;
    }
  }
}

TEST(Dataflow, ObserverCanBeClearedAndRejectsMidFlightInstall) {
  ThreadPool pool(1);
  Trace trace;
  DataflowExecutor ex;
  int calls = 0;
  ex.set_observer([&](int, double) { ++calls; });
  ex.set_observer(nullptr);  // cleared: next graph runs unobserved

  std::vector<Node> nodes(1);
  nodes[0] = compute(trace, "a", {}, /*external=*/1);
  ex.begin(std::move(nodes), {}, pool);
  EXPECT_THROW(ex.set_observer([](int, double) {}), std::logic_error);
  ex.satisfy(0);
  ex.wait();
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace spdkfac::exec
