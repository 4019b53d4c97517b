// Public entry point: the full S* pipeline behind one class.
//
//   SparseMatrix A = ...;
//   Solver solver(A, SolverOptions{});   // transversal + ordering +
//                                        // static symbolic + 2D L/U
//                                        // partition + amalgamation
//   solver.factorize();                  // S* numeric phase: the LU task
//                                        // DAG on every CPU it may use
//   std::vector<double> x = solver.solve(b);
//
// factorize() runs the Factor/ScaleSwap/Update DAG (§4.1) on one
// work-stealing worker per CPU in the process's affinity mask
// (exec/lu_real; `taskset` limits them); its factors, pivots and
// FactorStats are bitwise those of the sequential loop
// SStarNumeric::factorize() at every worker count. The simulated
// distributed-memory drivers live in core/lu_1d.hpp and core/lu_2d.hpp
// and consume the same preprocessing through this class.
//
// Every solve — A or Aᵀ, one right-hand side or many, here or in a
// serve::SolveSession — is one path: solve_in_panels() gathers the
// caller's columns into a row-major panel in the pipeline's numbering,
// SStarNumeric sweeps it, and the result is scattered back.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/numeric.hpp"
#include "core/pivot.hpp"
#include "core/task_graph.hpp"
#include "matrix/sparse.hpp"
#include "supernode/block_layout.hpp"

namespace sstar {

/// Pipeline knobs. Defaults mirror the paper's choices, except
/// max_block, which is sized for current hosts.
struct SolverOptions {
  /// Maximum supernode width after splitting for cache/parallelism
  /// ("BSIZE"). The paper uses 25 on both T3D and T3E, and its benches
  /// keep that (bench/common.hpp). 64 was faster than 25 at one worker
  /// and at four on every suite matrix measured on an AVX-512 host
  /// (DESIGN.md §12): wider blocks halve the Update epilogue's scatter
  /// and the task count, for a wider BLAS-2 Factor(k) panel.
  int max_block = 64;
  /// Supernode amalgamation factor r (§3.3; 4-6 reported best, 0 = off).
  int amalgamation = 4;
  /// Fill-reducing column ordering.
  enum class Ordering { kMinDegreeAtA, kNestedDissection, kRcm, kNatural };
  Ordering ordering = Ordering::kMinDegreeAtA;
  /// Row/column equilibration (SuperLU-style): scale rows to unit
  /// max-magnitude, then columns likewise, before pivoting. Improves
  /// pivot choices on badly scaled systems; solves transparently undo it.
  bool equilibrate = false;
  /// Pivot-selection policy for the numeric phase (core/pivot.hpp).
  /// The default (threshold = 1.0) is exact partial pivoting; a relaxed
  /// threshold shortens the Factor/ScaleSwap critical path at a
  /// monitored stability cost — pair with solve/stability.hpp's
  /// backward-error gate when relaxing.
  PivotPolicy pivot;
};

/// Everything the symbolic phase produces (shared by the sequential and
/// all parallel drivers).
struct SolverSetup {
  SparseMatrix permuted;        ///< A after equilibration, row transversal
                                ///< and symmetric fill-reducing permutation
  std::vector<int> row_perm;    ///< permuted row i holds original row
                                ///< row_perm[i]
  std::vector<int> col_perm;    ///< permuted col j holds original col
                                ///< col_perm[j]
  std::vector<double> row_scale;///< equilibration row scales (original
                                ///< indexing; empty = none)
  std::vector<double> col_scale;///< equilibration column scales
  StaticStructure structure;    ///< static symbolic factorization
  std::unique_ptr<BlockLayout> layout;  ///< 2D L/U supernode layout
  /// Partition width before amalgamation (for reporting).
  double presplit_avg_width = 0.0;
};

/// Run the symbolic pipeline only. Throws CheckError naming the first
/// non-finite entry of `a` (column-major order) by its (row, col).
SolverSetup prepare(const SparseMatrix& a, const SolverOptions& opt);

/// The one mapping between the caller's numbering and the pipeline's.
/// Solves A X = B, or Aᵀ X = B when `transpose`, for the column-major
/// n x nrhs B in the ORIGINAL numbering: each chunk of at most
/// `panel_width` columns is gathered straight into the row-major
/// `panel` in the pipeline's numbering, solved in place by
/// `sweep(ncols)`, and scattered back. The permuted matrix is
/// R (Dr A Dc) Cᵀ, so A gathers through row_perm/row_scale and
/// scatters through col_perm/col_scale; Aᵀ swaps the two. Each entry
/// is moved with the same single multiply at any width or chunking.
/// Throws CheckError naming the first non-finite entry of B
/// (column-major order) by its (row, col), before any sweep.
std::vector<double> solve_in_panels(const SolverSetup& setup,
                                    const std::vector<double>& b, int nrhs,
                                    bool transpose, int panel_width,
                                    std::vector<double>& panel,
                                    const std::function<void(int)>& sweep);

class Solver {
 public:
  Solver(const SparseMatrix& a, SolverOptions opt = {});

  /// Numeric factorization: the LU task DAG, built with the Solver, on
  /// exec::default_thread_count() workers; bitwise the sequential
  /// loop's factors at any count. A zero or non-finite pivot, or a
  /// factor entry that overflowed, throws the loop's PivotError (the
  /// first failing task in elimination order), naming its column in
  /// A's numbering.
  void factorize();
  bool factorized() const { return factorized_; }

  /// Re-run the numeric phase under a different pivot policy: re-load
  /// A's values into the factor storage and factorize again. The
  /// symbolic setup (ordering, structure, layout) is reused — only the
  /// numeric work repeats. This is the stability safety net's
  /// escalation step (solve/stability.hpp): tighten the threshold and
  /// refactor when the backward-error gate or growth bound is breached.
  void refactorize(const PivotPolicy& policy);

  /// Solve A x = b in the ORIGINAL row/column numbering.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solve Aᵀ x = b in the ORIGINAL numbering (adjoint systems,
  /// condition estimation).
  std::vector<double> solve_transpose(const std::vector<double>& b) const;

  /// Solve A X = B (Aᵀ X = B) for nrhs right-hand sides (column-major
  /// n x nrhs) as one panel, amortizing the factor traversal; column r
  /// is bitwise solve (solve_transpose) of column r.
  std::vector<double> solve_multi(const std::vector<double>& b,
                                  int nrhs) const;
  std::vector<double> solve_transpose_multi(const std::vector<double>& b,
                                            int nrhs) const;

  const SolverOptions& options() const { return opt_; }
  const SolverSetup& setup() const { return setup_; }
  const BlockLayout& layout() const { return *setup_.layout; }
  const SStarNumeric& numeric() const { return numeric_; }
  SStarNumeric& numeric() { return numeric_; }
  const FactorStats& stats() const { return numeric_.stats(); }

 private:
  /// The routine the four solve methods forward to.
  std::vector<double> solve_columns(const std::vector<double>& b, int nrhs,
                                    bool transpose) const;

  SolverOptions opt_;
  SolverSetup setup_;
  SStarNumeric numeric_;
  // Built once with the Solver: rebuilding it on every factorize()
  // measurably slowed one-worker refactorizations (DESIGN.md §7).
  LuTaskGraph graph_;
  bool factorized_ = false;
};

}  // namespace sstar
