// Per-client solve state against a shared immutable Factorization.
//
// Memory model (DESIGN.md §14): ALL mutable state of a solve — the
// row-major RHS panel scratch and the prebuilt DAG task closures —
// lives inside the session; the Factorization is only ever read. A
// session is therefore NOT thread-safe (one session per client
// thread), but any number of sessions may solve against the same
// Factorization concurrently with no locking whatsoever.
//
// Solves take Solver's one path (solve_in_panels, solve/solver.hpp):
// the caller's columns are gathered, `panel_width` at a time, straight
// into the session's row-major panel, swept through the per-supernode
// stages (core/numeric panel kernels, routed through the dispatched SIMD
// backends), and scattered back. Only the sweep is the session's own:
// it runs the factor's solve DAG (core/solve_graph) on the work-stealing
// executor, whose one worker runs it in the sweep order solve() uses;
// the DAG's writer chains order every conflicting row-block access in
// sequential order, so results are BITWISE identical to Solver::solve
// per column at any thread count, panel width, and backend choice (for
// a fixed backend).
#pragma once

#include <memory>
#include <vector>

#include "exec/executor.hpp"
#include "serve/factorization.hpp"

namespace sstar::serve {

struct SessionOptions {
  int threads = 1;      ///< workers per sweep; <= 1 runs sweeps inline
  int panel_width = 32; ///< max RHS columns swept through the factor at once
};

class SolveSession {
 public:
  explicit SolveSession(std::shared_ptr<const Factorization> factor,
                        SessionOptions opt = {});

  /// Solve A x = b in the original numbering; bitwise identical to
  /// Solver::solve on the wrapped solver (for a fixed kernel backend).
  std::vector<double> solve(const std::vector<double>& b);

  /// Solve A X = B for nrhs column-major right-hand sides (n x nrhs),
  /// column-for-column bitwise identical to solve().
  std::vector<double> solve_multi(const std::vector<double>& b, int nrhs);

  const Factorization& factorization() const { return *factor_; }
  const SessionOptions& options() const { return opt_; }

 private:
  void sweep(int ncols);  ///< run one panel traversal over panel_

  std::shared_ptr<const Factorization> factor_;
  SessionOptions opt_;

  // Sweep scratch: row-major n x cur_cols_ panel (row i's values
  // contiguous). Task closures read panel_/cur_cols_ at run time, so
  // the DAG is built once here and replayed for every sweep.
  std::vector<double> panel_;
  int cur_cols_ = 0;
  std::vector<exec::DagTask> tasks_;
  std::vector<exec::DagEdge> edges_;
};

}  // namespace sstar::serve
