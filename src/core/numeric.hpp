// The S* numeric factorization kernels (§4.1, Figs. 6-8 of the paper).
//
// Work is organized in the paper's task granularity so parallel drivers
// can invoke kernels in any dependency-respecting order — including
// CONCURRENTLY on real threads (src/exec): tasks targeting different
// column blocks write disjoint storage, the LuTaskGraph edges order the
// rest, and the kernels keep their scratch thread-local and their stats
// accumulation mutex-guarded, so any dependency-respecting parallel
// execution produces bitwise-identical factors to factorize().
// Task kinds:
//   Factor(k)      — factor diagonal block + L panel of supernode k with
//                    pivoting confined to the panel (the static
//                    structure guarantees all candidate rows live there);
//                    the PivotPolicy (core/pivot.hpp) selects WITHIN that
//                    set — exact partial pivoting by default, threshold
//                    pivoting when relaxed — so Theorem 1's confinement
//                    holds for every policy;
//   ScaleSwap(k,j) — delayed pivoting: apply block k's pivot sequence to
//                    column block j;
//   Update(k,j)    — U_kj = L_kk^{-1} U_kj (DTRSM), then one DGEMM of
//                    k's whole L panel by U_kj's nonzero columns into
//                    scratch, then A_ij -= L_ik * U_kj for each L block
//                    i: a subtract epilogue whose target offsets come
//                    from one merge walk of the sorted panel lists per
//                    block. An exactly zero column of U_kj is skipped
//                    without changing a bit (see update_block).
//
// Every factor entry is checked once: Factor(k) its pivot candidates
// (which a non-finite U_kk entry reaches through the rank-1 updates)
// and multipliers, Update(k, j) its final U_kj. A non-finite one throws
// PivotError naming its column, so the factors are finite or the
// factorization fails.
//
// Pivoting is physical in the active region only: computed L multipliers
// stay with their storage row (the sparse-LU convention; SuperLU does the
// same logically). The resulting factors are applied to right-hand sides
// by replaying the swap/eliminate sequence, and reconstruct_pa_lu() can
// rebuild the conventional PA = LU triple for verification.
//
// Every solve runs on one shape: a ROW-major panel (system row r's
// `ncols` right-hand-side values contiguous at rhs + r*ld) swept through
// per-supernode stages, forward over blocks 0..N-1 then backward over
// N-1..0. solve_panel() is that sweep; the serving layer replays the
// same stages task by task; a single-RHS solve is the ncols == 1 case
// and a transposed solve the transposed stages.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "blas/flops.hpp"
#include "core/block_matrix.hpp"
#include "core/block_store.hpp"
#include "core/pivot.hpp"
#include "util/check.hpp"

namespace sstar {

/// The numeric phase cannot go on at column(). Either Factor(k) found
/// no usable pivot, because the largest candidate of a column is zero
/// (the matrix is numerically singular) or not finite, or a computed
/// factor entry of that column (an L multiplier or a U entry)
/// overflowed. column() is in the thrower's numbering: the kernels
/// report the permuted column, Solver::factorize()/refactorize()
/// rethrow it naming the caller's column.
class PivotError : public CheckError {
 public:
  enum class Cause { kPivot, kOverflow };
  PivotError(double pivot, int column, Cause cause = Cause::kPivot);
  /// The failing value: the pivot candidate, or the overflowed entry.
  double pivot() const { return pivot_; }
  int column() const { return column_; }
  Cause cause() const { return cause_; }

 private:
  double pivot_;
  int column_;
  Cause cause_;
};

/// Statistics of one numeric factorization run.
struct FactorStats {
  /// Exact flops by BLAS level: the static S* count (what the paper's
  /// S* executes), booked per task from the task model
  /// (core/task_model), which the machine model prices.
  blas::FlopCount flops;
  /// The part of `flops` that Update(k, j) skipped as exactly zero
  /// columns of U_kj (GEMM and subtract); flops - skipped_flops ran.
  blas::FlopCount skipped_flops;
  int off_diagonal_pivots = 0; ///< pivot row != current row count
  int relaxed_pivots = 0;      ///< columns where the threshold policy kept
                               ///< a pivot below the column max
  double input_max_abs = 0.0;  ///< max |a_ij| of the assembled matrix
  double blas3_fraction() const {
    const auto t = flops.total();
    return t == 0 ? 0.0 : static_cast<double>(flops.blas3) / t;
  }
};

class SStarNumeric {
 public:
  /// Packed storage (the whole factor in one arena): the sequential
  /// driver's and shared-memory executor's configuration.
  explicit SStarNumeric(const BlockLayout& layout);

  /// Run the kernels over an explicit store — this is how a
  /// message-passing rank gets owner-only storage (a DistBlockStore):
  /// Factor/ScaleSwap/Update address blocks only through the BlockStore
  /// interface, so they run identically over either implementation.
  /// `store->layout()` must be `layout`.
  SStarNumeric(const BlockLayout& layout, std::unique_ptr<BlockStore> store);

  /// Load A's values (A must match the layout's static structure).
  void assemble(const SparseMatrix& a);

  /// Pivot-selection policy for factor_block. Must be set before any
  /// Factor(k) runs; the default (threshold = 1.0) is exact partial
  /// pivoting, bitwise-identical to the historical kernel. In the
  /// message-passing runtime every rank replica inherits the result
  /// numeric's policy (exec/lu_mp), so one knob governs all executors.
  void set_pivot_policy(const PivotPolicy& policy);
  const PivotPolicy& pivot_policy() const { return policy_; }

  // --- task kernels ------------------------------------------------------
  void factor_block(int k);
  void scale_swap(int k, int j);
  void update_block(int k, int j);

  /// Sequential right-looking driver: Fig. 6's loop nest, in the LU
  /// task DAG's index order. The bitwise reference every parallel
  /// executor matches (Solver::factorize() runs the DAG instead); tests
  /// and bench_table2's Table 2 column call it directly.
  void factorize();

  // --- solve stages over a row-major panel (see the header comment) ----
  /// forward_block_panel applies block k's row interchanges and
  /// eliminates with its L columns; backward_block_panel back-substitutes
  /// block k's U rows. They route through the dispatched rhs_* kernels,
  /// whose element op order is independent of ncols (multi-RHS contract,
  /// blas/kernel_backend.hpp), so per column the result is bitwise the
  /// ncols == 1 result, and the L/U blocks are loaded once per panel.
  void forward_block_panel(int k, double* rhs, int ld, int ncols) const;
  void backward_block_panel(int k, double* rhs, int ld, int ncols) const;

  /// The Aᵀ X = B stages: the transposed elimination sequence (Uᵀ
  /// forward solve, then the adjoint of each block's eliminate-and-swap
  /// stage in reverse), on the same kernels — an index reversal maps
  /// each block's transposed triangular factors onto the upper/lower
  /// panel solves (see reversed_diag_copy in numeric.cpp).
  void transpose_forward_block_panel(int k, double* rhs, int ld,
                                     int ncols) const;
  void transpose_backward_block_panel(int k, double* rhs, int ld,
                                      int ncols) const;

  /// The one panel sweep: solve A X = B, or Aᵀ X = B when `transpose`,
  /// in place over the row-major n x ncols panel `rhs` (ld = ncols).
  void solve_panel(double* rhs, int ncols, bool transpose = false) const;

  /// Solve A x = b (Aᵀ x = b) with the computed factors: solve_panel at
  /// ncols == 1, the sequential reference the parallel solves match.
  std::vector<double> solve(std::vector<double> b) const;
  std::vector<double> solve_transpose(std::vector<double> b) const;

  /// pivot_of_col()[m] = storage row swapped into step m (== m when the
  /// diagonal won the pivot search).
  const std::vector<int>& pivot_of_col() const { return pivot_of_col_; }

  /// Install block k's pivot sequence (`rows[i]` = pivot row of column
  /// start(k)+i) and mark the block factored. This is how a received
  /// Factor(k) broadcast enters a rank-local replica in the
  /// message-passing runtime (comm/serialize), and how the merged
  /// result of a distributed run regains a complete pivot vector.
  void adopt_pivots(int k, const int* rows);

  /// Install block k's pivot monitor data (per column: chosen pivot
  /// magnitude and the column max it was measured against) alongside
  /// adopt_pivots — the stability-monitor companion of the pivot
  /// sequence, carried on the Factor(k) wire payload (comm/serialize).
  void adopt_pivot_monitor(int k, const double* magnitudes,
                           const double* colmaxes);

  /// Per column: |chosen pivot| at selection time (finite, > 0) and
  /// the column max over the full candidate set it was measured
  /// against. Under exact partial pivoting the two are equal; under a
  /// threshold policy magnitude >= threshold * colmax holds for every
  /// column (the property test's invariant).
  const std::vector<double>& pivot_magnitudes() const { return pivot_mag_; }
  const std::vector<double>& pivot_colmaxes() const { return pivot_colmax_; }

  /// max over factored columns of colmax / |chosen pivot| — 1.0 under
  /// exact partial pivoting, <= 1/threshold under a threshold policy.
  /// The per-step relaxation factor entering the growth bound.
  double pivot_ratio() const;

  const FactorStats& stats() const { return stats_; }

  /// Element-growth factor max_ij |u_ij| / max_ij |a_ij| after
  /// factorization — the classic GEPP stability diagnostic (bounded by
  /// 2^(n-1), tiny in practice).
  double growth_factor() const;
  const BlockLayout& layout() const { return *layout_; }
  BlockStore& data() { return *store_; }
  const BlockStore& data() const { return *store_; }

  /// Rebuild the conventional PA = LU triple (dense; test sizes only):
  /// perm maps original storage row -> pivoted position, l is unit lower
  /// with rows in position space, u is upper.
  void reconstruct_pa_lu(std::vector<int>* perm, DenseMatrix* l,
                         DenseMatrix* u) const;

 private:
  struct RowSlice;  // a row's stored cells within one column block
  RowSlice row_slice(int row, int j);
  void swap_rows_in_block(int m, int t, int j);

  const BlockLayout* layout_;
  std::unique_ptr<BlockStore> store_;
  PivotPolicy policy_;
  std::vector<int> pivot_of_col_;
  std::vector<double> pivot_mag_;     // per column: |chosen pivot|
  std::vector<double> pivot_colmax_;  // per column: candidate-set max
  FactorStats stats_;
  std::mutex stats_mu_;             // kernels may run on exec:: workers
  std::vector<int> factored_;       // per-block: factor_block done (checks)
};

}  // namespace sstar
