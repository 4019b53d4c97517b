// Shared-memory parallel DAG executor (real wall-clock parallelism).
//
// The simulated drivers in src/sim advance virtual processor clocks on
// one thread; this module runs the SAME task graphs on a pool of
// std::thread workers. Scheduling is the classic dependency-counter
// scheme: every task carries an atomic indegree, the worker that
// performs the final decrement pushes the task onto a ready deque, and
// each worker owns one deque — popping its own back (LIFO, cache-warm)
// and stealing other workers' fronts (FIFO, oldest work first) when it
// runs dry. Tasks may carry an affinity hint (a program task's virtual
// processor, the LU DAG's target column block); a hinted task is pushed
// to the hinted worker's deque (hint mod #workers), but stealing keeps
// hints advisory, never load-imbalancing.
//
// Completion counters use acquire/release ordering, so a task's body
// happens-before every successor's body; code executed through run_dag
// needs no further synchronization for data flowing along DAG edges.
//
// Each body runs under the trace's thread tags (trace/trace.hpp): the
// worker's lane and the task's index, which kernel spans carry and the
// dynamic access log (analysis/access_log) attributes accesses to. The
// executor reads the clock only around the whole run; per-worker busy
// and idle time come from a trace of the run (trace::phase_breakdown).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace sstar::exec {

/// One node of the DAG. `run` may be empty (a pure dependency node, e.g.
/// a simulated communication task with no numeric payload).
struct DagTask {
  std::function<void()> run;
  int affinity = -1;  ///< preferred worker (taken mod #workers); -1 = any
};

struct DagEdge {
  int from = 0;
  int to = 0;
};

struct ExecOptions {
  int threads = 0;  ///< worker count; 0 = default_thread_count()
};

/// What a run_dag call measured.
struct ExecStats {
  int threads = 1;
  double seconds = 0.0;        ///< wall time of the parallel region
  std::int64_t tasks_run = 0;  ///< tasks with a non-empty body
  std::int64_t steals = 0;     ///< cross-worker deque pops
};

/// The CPUs this process may run on (its affinity mask; where that is
/// unavailable, std::thread::hardware_concurrency()), at least 1.
int default_thread_count();

/// Execute every task exactly once, each after all its predecessors.
/// One worker runs the tasks inline, in index order when every edge
/// points forward (from a lower to a higher index) and in a Kahn
/// topological order otherwise. Throws CheckError on malformed edges or
/// cycles. Once a task body throws, no task numbered above the
/// lowest-numbered thrower starts, the lower-numbered ones finish, and
/// that thrower's exception is rethrown: with forward edges it is the
/// exception an index-order run throws, at every thread count.
ExecStats run_dag(const std::vector<DagTask>& tasks,
                  const std::vector<DagEdge>& edges,
                  const ExecOptions& opt = {});

}  // namespace sstar::exec
