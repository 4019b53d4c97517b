#include "exec/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace sstar::exec {

double ExecStats::busy_total() const {
  double sum = 0.0;
  for (const double b : busy_seconds) sum += b;
  return sum;
}

double ExecStats::efficiency() const {
  return threads > 0 && seconds > 0.0 ? busy_total() / (threads * seconds)
                                      : 0.0;
}

int default_thread_count() {
#ifdef __linux__
  // The affinity mask, not the machine: under `taskset -c 0` this is 1.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

namespace {

struct WorkerDeque {
  std::mutex mu;
  std::deque<int> dq;
};

// Shared state of one run_dag invocation.
struct RunState {
  const std::vector<DagTask>& tasks;
  std::vector<std::vector<int>> succs;
  std::vector<std::atomic<int>> indeg;
  std::vector<WorkerDeque> workers;
  int nw;

  std::atomic<int> pending{0};  ///< tasks queued or running
  std::atomic<int> ready{0};    ///< tasks queued
  std::mutex sleep_mu;
  std::condition_variable cv;
  // Lowest-numbered task that threw (the task count while none has) and
  // its exception. No task numbered above it starts.
  std::atomic<int> failed;
  std::mutex err_mu;
  std::exception_ptr err;

  std::atomic<std::int64_t> steals{0};
  std::atomic<std::int64_t> tasks_run{0};
  std::atomic<int> completed{0};  ///< tasks run (or bodiless) without throwing

  RunState(const std::vector<DagTask>& t, int workers_n)
      : tasks(t), succs(t.size()), indeg(t.size()),
        workers(static_cast<std::size_t>(workers_n)), nw(workers_n),
        failed(static_cast<int>(t.size())) {}

  void push(int t, int self) {
    const int hint = tasks[static_cast<std::size_t>(t)].affinity;
    const int target = hint >= 0 ? hint % nw : self;
    pending.fetch_add(1, std::memory_order_relaxed);
    {
      WorkerDeque& w = workers[static_cast<std::size_t>(target)];
      const std::lock_guard<std::mutex> lock(w.mu);
      w.dq.push_back(t);
    }
    ready.fetch_add(1, std::memory_order_release);
    // Lock-then-notify so a worker that just found `ready == 0` cannot
    // miss the wakeup between its predicate check and its wait.
    { const std::lock_guard<std::mutex> lock(sleep_mu); }
    cv.notify_one();
  }

  int pop_own(int self) {
    WorkerDeque& w = workers[static_cast<std::size_t>(self)];
    const std::lock_guard<std::mutex> lock(w.mu);
    if (w.dq.empty()) return -1;
    const int t = w.dq.back();
    w.dq.pop_back();
    ready.fetch_sub(1, std::memory_order_relaxed);
    return t;
  }

  int steal(int self) {
    for (int d = 1; d < nw; ++d) {
      WorkerDeque& w = workers[static_cast<std::size_t>((self + d) % nw)];
      const std::lock_guard<std::mutex> lock(w.mu);
      if (w.dq.empty()) continue;
      const int t = w.dq.front();
      w.dq.pop_front();
      ready.fetch_sub(1, std::memory_order_relaxed);
      steals.fetch_add(1, std::memory_order_relaxed);
      return t;
    }
    return -1;
  }

  void record_error(int t) {
    const std::lock_guard<std::mutex> lock(err_mu);
    if (t < failed.load(std::memory_order_relaxed)) {
      err = std::current_exception();
      failed.store(t, std::memory_order_release);
    }
  }

  // Runs task t and releases its successors; a throwing task releases
  // none.
  void run_task(int t, int self, double* busy) {
    const DagTask& task = tasks[static_cast<std::size_t>(t)];
    if (task.run) {
      const trace::ScopedTraceTask trace_task(t);
      const WallTimer timer;
      try {
        task.run();
      } catch (...) {
        record_error(t);
        return;
      }
      *busy += timer.seconds();
      tasks_run.fetch_add(1, std::memory_order_relaxed);
    }
    completed.fetch_add(1, std::memory_order_relaxed);
    for (const int s : succs[static_cast<std::size_t>(t)]) {
      // acq_rel: the final decrement observes every predecessor's
      // writes, and its push publishes them to whoever runs `s`.
      if (indeg[static_cast<std::size_t>(s)].fetch_sub(
              1, std::memory_order_acq_rel) == 1)
        push(s, self);
    }
  }

  void worker_loop(int self, double* busy) {
    // Tracing: this thread's events (kernel spans emitted inside task
    // bodies) belong to worker lane `self`.
    const trace::ScopedLane trace_lane(self);
    for (;;) {
      int t = pop_own(self);
      if (t < 0) t = steal(self);
      if (t < 0) {
        if (pending.load(std::memory_order_acquire) == 0) return;
        std::unique_lock<std::mutex> lock(sleep_mu);
        cv.wait_for(lock, std::chrono::microseconds(200), [&] {
          return ready.load(std::memory_order_acquire) > 0 ||
                 pending.load(std::memory_order_acquire) == 0;
        });
        continue;
      }
      // After a failure the run drains: tasks numbered below the lowest
      // thrower still run (one of them may throw first in index order),
      // the rest are dropped unrun.
      if (t < failed.load(std::memory_order_acquire)) run_task(t, self, busy);
      // Successors were pushed (and counted) before this decrement, so
      // pending reaches 0 only when no task can become ready again.
      if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        { const std::lock_guard<std::mutex> lock(sleep_mu); }
        cv.notify_all();
      }
    }
  }
};

}  // namespace

ExecStats run_dag(const std::vector<DagTask>& tasks,
                  const std::vector<DagEdge>& edges, const ExecOptions& opt) {
  const int n = static_cast<int>(tasks.size());
  const int nw =
      std::max(1, opt.threads > 0 ? opt.threads : default_thread_count());

  bool forward = true;
  for (const DagEdge& e : edges) {
    SSTAR_CHECK_MSG(e.from >= 0 && e.from < n && e.to >= 0 && e.to < n,
                    "edge (" << e.from << " -> " << e.to
                             << ") outside task range [0, " << n << ")");
    forward = forward && e.from < e.to;
  }

  ExecStats stats;
  stats.threads = nw;
  stats.busy_seconds.assign(static_cast<std::size_t>(nw), 0.0);

  // Indegrees and successor lists, which one worker on forward edges
  // does not need.
  std::vector<int> indeg0;
  std::vector<std::vector<int>> succs;
  if (nw > 1 || !forward) {
    indeg0.assign(static_cast<std::size_t>(n), 0);
    succs.resize(static_cast<std::size_t>(n));
    for (const DagEdge& e : edges) {
      succs[static_cast<std::size_t>(e.from)].push_back(e.to);
      ++indeg0[static_cast<std::size_t>(e.to)];
    }
  }

  // The one-worker execution order: index order when every edge points
  // forward (such edges cannot form a cycle), else a Kahn pass, which
  // also rejects cyclic inputs before any task runs.
  std::vector<int> order;
  if (!forward) {
    order.reserve(static_cast<std::size_t>(n));
    std::vector<int> indeg = indeg0;
    for (int t = 0; t < n; ++t)
      if (indeg[static_cast<std::size_t>(t)] == 0) order.push_back(t);
    for (std::size_t head = 0; head < order.size(); ++head)
      for (const int s : succs[static_cast<std::size_t>(order[head])])
        if (--indeg[static_cast<std::size_t>(s)] == 0) order.push_back(s);
    SSTAR_CHECK_MSG(static_cast<int>(order.size()) == n,
                    "task graph has a cycle ("
                        << n - static_cast<int>(order.size())
                        << " tasks unreachable)");
  }

  if (nw == 1) {
    // Inline execution: the 1-thread baseline pays no pool overhead, and
    // the first task to throw is the lowest-numbered thrower when edges
    // point forward.
    const trace::ScopedLane trace_lane(0);
    const WallTimer wall;
    for (int i = 0; i < n; ++i) {
      const int t = forward ? i : order[static_cast<std::size_t>(i)];
      const DagTask& task = tasks[static_cast<std::size_t>(t)];
      if (!task.run) continue;
      const trace::ScopedTraceTask trace_task(t);
      const WallTimer timer;
      task.run();
      stats.busy_seconds[0] += timer.seconds();
      ++stats.tasks_run;
    }
    stats.seconds = wall.seconds();
    return stats;
  }

  RunState state(tasks, nw);
  state.succs = std::move(succs);
  for (int t = 0; t < n; ++t)
    state.indeg[static_cast<std::size_t>(t)].store(
        indeg0[static_cast<std::size_t>(t)], std::memory_order_relaxed);

  // Seed the deques with the source tasks before any worker starts:
  // honor affinity hints, round-robin the rest.
  for (int t = 0, rr = 0; t < n; ++t) {
    if (indeg0[static_cast<std::size_t>(t)] != 0) continue;
    const int hint = tasks[static_cast<std::size_t>(t)].affinity;
    const int target = hint >= 0 ? hint % nw : (rr++ % nw);
    state.workers[static_cast<std::size_t>(target)].dq.push_back(t);
    state.ready.fetch_add(1, std::memory_order_relaxed);
    state.pending.fetch_add(1, std::memory_order_relaxed);
  }

  const WallTimer wall;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(nw));
  for (int w = 0; w < nw; ++w)
    pool.emplace_back([&state, w, busy = &stats.busy_seconds[w]] {
      state.worker_loop(w, busy);
    });
  for (std::thread& th : pool) th.join();
  stats.seconds = wall.seconds();

  if (state.err) std::rethrow_exception(state.err);
  SSTAR_CHECK_MSG(state.completed.load() == n,
                  "executor finished with unrun tasks");
  stats.tasks_run = state.tasks_run.load();
  stats.steals = state.steals.load();
  return stats;
}

}  // namespace sstar::exec
