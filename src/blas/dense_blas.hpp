// Dense BLAS-1/2/3 kernels used by the blocked sparse LU factorization.
//
// The paper's S* algorithm owes its performance to funnelling most of the
// numerical work through DGEMM (BLAS-3) instead of DGEMV (BLAS-2); this
// module provides those kernels from scratch (no vendor BLAS in this
// environment — see DESIGN.md substitution #2). Their flop counts, which
// the Cray T3D/T3E machine model prices, come from the task model
// (core/task_model), not from the kernels.
//
// Conventions: column-major storage with an explicit leading dimension,
// like reference BLAS. Each kernel is sequential and keeps no shared
// state; parallelism in this project lives at the task level (simulated
// in src/sim, real threads in src/exec), so kernels may run concurrently
// on different tasks.
#pragma once

#include <cstddef>

namespace sstar::blas {

/// Index of the element of x (stride incx, n elements) with the largest
/// absolute value; first such index on ties. A NaN outranks every
/// number: the index of the first NaN is returned. Returns 0 for n <= 0.
int idamax(int n, const double* x, int incx = 1);

/// x *= alpha.
void dscal(int n, double alpha, double* x, int incx = 1);

/// Swap vectors x and y.
void dswap(int n, double* x, double* y, int incx = 1, int incy = 1);

/// Rank-1 update A += alpha * x * yᵀ, A is m x n column-major. x has
/// stride incx, y stride incy (a row of a column-major matrix passes
/// incy = its leading dimension).
void dger(int m, int n, double alpha, const double* x, const double* y,
          double* a, int lda, int incx = 1, int incy = 1);

/// Solve L * x = b in place where L is n x n unit lower triangular
/// (strict lower part of a, diagonal implied 1).
void dtrsv_lower_unit(int n, const double* a, int lda, double* x);

/// Solve U * x = b in place where U is n x n upper triangular including
/// the diagonal of a.
void dtrsv_upper(int n, const double* a, int lda, double* x);

/// Solve L * X = B in place for an n x n unit lower triangular L and an
/// n x m right-hand-side block B (column-major, ldb >= n). This is the
/// DTRSM used to form U_kj = L_kk^{-1} U_kj in Update(k, j).
void dtrsm_lower_unit(int n, int m, const double* a, int lda, double* b,
                      int ldb);

/// C = alpha * A * B + beta * C with A (m x k), B (k x n), C (m x n),
/// all column-major. Register-blocked micro-kernel. This is the
/// workhorse DGEMM of Update(k, j).
void dgemm(int m, int n, int k, double alpha, const double* a, int lda,
           const double* b, int ldb, double beta, double* c, int ldc);

// --- Multi-RHS blocked-solve kernels (serving layer, DESIGN.md §14).
// RHS panels are ROW-major (system row r's ncols values contiguous at
// p + r*ld); per RHS column the arithmetic is bitwise-identical to the
// sequential single-RHS substitution under the active backend — see the
// KernelOps contract in kernel_backend.hpp.

/// y(i, :) -= sum_p a(i, p) * x(p, :) over row-major panels, with
/// optional row index maps (xrows/yrows, nullptr = rows 0..k-1/0..m-1).
/// With skip_zero_x_rows the all-zero rows of x are skipped, matching
/// the forward substitution's bm == 0.0 short-cut; the skip mask is
/// computed here so it is backend-independent.
void rhs_panel_update(int m, int k, int ncols, const double* a, int lda,
                      const double* x, int ldx, const int* xrows, double* y,
                      int ldy, const int* yrows, bool skip_zero_x_rows);

/// In-place unit-lower-triangular solve of the w x ncols row-major panel
/// b against the column-major block a.
void rhs_lower_solve(int w, int ncols, const double* a, int lda, double* b,
                     int ldb);

/// In-place upper-triangular solve (left-looking row order) of the
/// w x ncols row-major panel b.
void rhs_upper_solve(int w, int ncols, const double* a, int lda, double* b,
                     int ldb);

}  // namespace sstar::blas
