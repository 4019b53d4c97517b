// Tests for the shared-memory DAG executor: every task runs exactly
// once, never before its predecessors, across thread counts and random
// graph shapes; an edge that does not point forward is rejected before
// any task runs, and the exception a task throws is the one an
// index-order run would throw.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "exec/executor.hpp"
#include "util/check.hpp"

namespace sstar::exec {
namespace {

TEST(Executor, EmptyDag) {
  const ExecStats st = run_dag({}, {}, 4);
  EXPECT_EQ(st.threads, 4);
}

TEST(Executor, ChainRunsInOrder) {
  constexpr int kN = 200;
  std::atomic<int> next{0};
  std::atomic<bool> order_ok{true};
  std::vector<DagTask> tasks(kN);
  std::vector<DagEdge> edges;
  for (int i = 0; i < kN; ++i) {
    tasks[i].run = [i, &next, &order_ok] {
      if (next.fetch_add(1) != i) order_ok = false;
    };
    if (i > 0) edges.push_back({i - 1, i});
  }
  for (const int nt : {1, 2, 8}) {
    next = 0;
    order_ok = true;
    run_dag(tasks, edges, nt);
    EXPECT_EQ(next.load(), kN);
    EXPECT_TRUE(order_ok) << "chain order violated at " << nt << " threads";
  }
}

TEST(Executor, RandomDagRespectsPrecedence) {
  // Stress: random layered DAGs; every task verifies all its
  // predecessors completed before it started.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    std::mt19937_64 rng(seed);
    constexpr int kN = 400;
    std::vector<std::vector<int>> preds(kN);
    std::vector<DagEdge> edges;
    for (int i = 1; i < kN; ++i) {
      const int np = static_cast<int>(rng() % 4);
      for (int e = 0; e < np; ++e) {
        const int p = static_cast<int>(rng() % static_cast<std::uint64_t>(i));
        preds[i].push_back(p);
        edges.push_back({p, i});
      }
    }
    std::vector<std::atomic<int>> done(kN);
    for (auto& d : done) d = 0;
    std::atomic<bool> violation{false};
    std::vector<DagTask> tasks(kN);
    for (int i = 0; i < kN; ++i) {
      tasks[i].affinity = static_cast<int>(rng() % 11) - 1;  // mix hints/none
      tasks[i].run = [i, &preds, &done, &violation] {
        for (const int p : preds[i])
          if (done[p].load(std::memory_order_acquire) != 1) violation = true;
        done[i].store(1, std::memory_order_release);
      };
    }
    run_dag(tasks, edges, 8);
    EXPECT_FALSE(violation) << "precedence violated, seed " << seed;
    for (int i = 0; i < kN; ++i) EXPECT_EQ(done[i].load(), 1);
  }
}

TEST(Executor, EveryTaskRunsExactlyOnce) {
  constexpr int kN = 300;
  std::mt19937_64 rng(99);
  std::vector<DagEdge> edges;
  for (int i = 1; i < kN; ++i)
    if (rng() % 2)
      edges.push_back(
          {static_cast<int>(rng() % static_cast<std::uint64_t>(i)), i});
  std::vector<std::atomic<int>> count(kN);
  for (auto& c : count) c = 0;
  std::vector<DagTask> tasks(kN);
  for (int i = 0; i < kN; ++i)
    tasks[i].run = [i, &count] { ++count[i]; };
  run_dag(tasks, edges, 6);
  for (int i = 0; i < kN; ++i) EXPECT_EQ(count[i].load(), 1) << "task " << i;
}

TEST(Executor, AffinityOutOfRangeIsWrapped) {
  std::atomic<int> ran{0};
  std::vector<DagTask> tasks(8);
  for (int i = 0; i < 8; ++i) {
    tasks[i].affinity = 1000 + i;  // far beyond the worker count
    tasks[i].run = [&ran] { ++ran; };
  }
  run_dag(tasks, {}, 3);
  EXPECT_EQ(ran.load(), 8);
}

// Task ids are the sequential order, so every edge must point forward:
// a cycle, a backward edge and a self-edge are each rejected with a
// message naming the edge, at one worker and at two, before any task
// runs.
TEST(Executor, BackwardEdgeRejectedBeforeAnyTaskRuns) {
  std::atomic<int> ran{0};
  std::vector<DagTask> tasks(3);
  for (auto& t : tasks) t.run = [&ran] { ++ran; };
  const std::vector<std::pair<std::vector<DagEdge>, std::string>> cases{
      {{{0, 1}, {1, 2}, {2, 0}}, "edge (2 -> 0)"},
      {{{0, 2}, {2, 1}}, "edge (2 -> 1)"},
      {{{0, 1}, {1, 1}}, "edge (1 -> 1)"},
  };
  for (const auto& [edges, named] : cases) {
    for (const int nt : {1, 2}) {
      try {
        run_dag(tasks, edges, nt);
        ADD_FAILURE() << named << " accepted at " << nt << " worker(s)";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(Executor, BadEdgeDetected) {
  std::vector<DagTask> tasks(2);
  EXPECT_THROW(run_dag(tasks, {{0, 5}}, 2), CheckError);
}

TEST(Executor, TaskExceptionPropagates) {
  std::vector<DagTask> tasks(50);
  for (int i = 0; i < 50; ++i) tasks[i].run = [] {};
  tasks[25].run = [] { throw std::runtime_error("boom"); };
  std::vector<DagEdge> edges;
  for (int i = 1; i < 50; ++i) edges.push_back({i - 1, i});
  EXPECT_THROW(run_dag(tasks, edges, 4), std::runtime_error);
  EXPECT_THROW(run_dag(tasks, edges, 1), std::runtime_error);
}

// Independent tasks 10 and 40 both throw. Task 10 is slow and sits at
// the cold end of its worker's deque, so 40 usually throws first in wall
// time; the run must still rethrow task 10's exception, after every
// task below 10 has run.
TEST(Executor, LowestNumberedThrowerWinsAtEveryThreadCount) {
  constexpr int kN = 64;
  std::vector<std::atomic<int>> ran(kN);
  std::vector<DagTask> tasks(kN);
  for (int i = 0; i < kN; ++i)
    tasks[i].run = [i, &ran] { ran[i].store(1, std::memory_order_relaxed); };
  tasks[10].run = [] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    throw std::runtime_error("task 10");
  };
  tasks[40].run = [] { throw std::runtime_error("task 40"); };
  for (const int nt : {1, 2, 4, 8}) {
    for (int rep = 0; rep < 20; ++rep) {
      for (auto& r : ran) r = 0;
      try {
        run_dag(tasks, {}, nt);
        FAIL() << "no exception at " << nt << " threads";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "task 10") << nt << " threads";
      }
      for (int i = 0; i < 10; ++i)
        EXPECT_EQ(ran[i].load(), 1) << "task " << i << ", " << nt;
    }
  }
}

// A DAG whose breadth-first order is not its index order: one worker
// runs it in index order.
TEST(Executor, OneWorkerRunsForwardDagInIndexOrder) {
  constexpr int kN = 6;
  std::vector<int> order;
  std::vector<DagTask> tasks(kN);
  for (int i = 0; i < kN; ++i)
    tasks[i].run = [i, &order] { order.push_back(i); };
  const std::vector<DagEdge> edges{{0, 4}, {0, 5}, {1, 2}, {3, 5}};
  run_dag(tasks, edges, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

#ifdef __linux__
// The default worker count is the affinity mask's CPU count: a thread
// pinned to one CPU gets one worker, whatever the machine has.
TEST(Executor, DefaultThreadCountFollowsAffinityMask) {
  int pinned = -1;  // stays -1 if this host refuses to pin a thread
  std::thread probe([&pinned] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    int cpu = 0;
    while (!CPU_ISSET(cpu, &set)) ++cpu;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0) return;
    pinned = default_thread_count();
  });
  probe.join();
  EXPECT_GE(default_thread_count(), 1);
  if (pinned == -1) GTEST_SKIP() << "cannot pin a thread to one CPU here";
  EXPECT_EQ(pinned, 1);
}
#endif

TEST(Executor, StatsAreCoherent) {
  std::vector<DagTask> tasks(64);
  std::atomic<int> ran{0};
  for (auto& t : tasks)
    t.run = [&ran] {
      volatile double x = 1.0;
      for (int i = 0; i < 1000; ++i) x = x * 1.0000001;
      ++ran;
    };
  const ExecStats st = run_dag(tasks, {}, 4);
  EXPECT_EQ(st.threads, 4);
  EXPECT_EQ(ran.load(), 64);
  EXPECT_GT(st.seconds, 0.0);
}

}  // namespace
}  // namespace sstar::exec
