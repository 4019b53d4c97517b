// Shared-memory parallel DAG executor (real wall-clock parallelism).
//
// Runs a task DAG whose ids are its sequential order — the LU task
// graph (core/task_graph) and the solve DAG (core/solve_graph) — on a
// pool of std::thread workers. Scheduling is the classic
// dependency-counter scheme: every task carries an atomic indegree, the
// worker that performs the final decrement pushes the task onto a ready
// deque, and each worker owns one deque — popping its own back (LIFO,
// cache-warm) and stealing other workers' fronts (FIFO, oldest work
// first) when it runs dry. Tasks may carry an affinity hint (the LU
// DAG's target column block); a hinted task is pushed to the hinted
// worker's deque (hint mod #workers), but stealing keeps hints advisory,
// never load-imbalancing.
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

/// One node of the DAG. A task's index is its position in the
/// sequential order the DAG relaxes.
struct DagTask {
  std::function<void()> run;
  int affinity = -1;  ///< preferred worker (taken mod #workers); -1 = any
};

/// A dependence edge; it must point forward (from < to).
struct DagEdge {
  int from = 0;
  int to = 0;
};

/// What a run_dag call measured.
struct ExecStats {
  int threads = 1;
  double seconds = 0.0;     ///< wall time of the parallel region
  std::int64_t steals = 0;  ///< cross-worker deque pops
};

/// The CPUs this process may run on (its affinity mask; where that is
/// unavailable, std::thread::hardware_concurrency()), at least 1.
int default_thread_count();

/// Execute every task exactly once, each after all its predecessors, on
/// `threads` workers (0 = default_thread_count()). Every edge must point
/// forward, so index order is a topological order: one worker runs the
/// tasks inline in index order. Throws CheckError naming the first edge
/// that is out of range or does not point forward, before any task runs.
/// Once a task body throws, no task numbered above the lowest-numbered
/// thrower starts, the lower-numbered ones finish, and that thrower's
/// exception is rethrown: the exception an index-order run throws, at
/// every thread count.
ExecStats run_dag(const std::vector<DagTask>& tasks,
                  const std::vector<DagEdge>& edges, int threads = 0);

}  // namespace sstar::exec
