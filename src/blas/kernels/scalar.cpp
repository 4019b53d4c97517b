// Reference scalar backend: the project's original from-scratch loops.
//
// This backend is always available and is the ORACLE: the conformance
// fuzzer bounds every SIMD backend against these exact loops, and
// pinning SSTAR_KERNEL_BACKEND=scalar gives the same bits on any host.
#include <cstring>

#include "blas/kernels/kernels.hpp"

namespace sstar::blas::kernels {
namespace {

void scalar_dger(int m, int n, double alpha, const double* x, const double* y,
                 double* a, int lda, int incx, int incy) {
  if (m <= 0 || n <= 0 || alpha == 0.0) return;
  for (int j = 0; j < n; ++j) {
    const double yj = alpha * y[static_cast<std::ptrdiff_t>(j) * incy];
    if (yj == 0.0) continue;
    double* col = a + static_cast<std::ptrdiff_t>(j) * lda;
    if (incx == 1) {
      for (int i = 0; i < m; ++i) col[i] += x[i] * yj;
    } else {
      for (int i = 0; i < m; ++i)
        col[i] += x[static_cast<std::ptrdiff_t>(i) * incx] * yj;
    }
  }
}

void scalar_dtrsm_lower_unit(int n, int m, const double* a, int lda,
                             double* b, int ldb) {
  // Column-at-a-time forward substitution over the block right-hand side.
  for (int c = 0; c < m; ++c) {
    double* x = b + static_cast<std::ptrdiff_t>(c) * ldb;
    for (int j = 0; j < n; ++j) {
      const double xj = x[j];
      if (xj == 0.0) continue;
      const double* col = a + static_cast<std::ptrdiff_t>(j) * lda;
      for (int i = j + 1; i < n; ++i) x[i] -= xj * col[i];
    }
  }
}

// Micro-kernel tile sizes. 4x4 register tiles with a k-loop keeps the
// inner loop in registers on any x86-64 without intrinsics.
constexpr int kMr = 4;
constexpr int kNr = 4;

// C (mr x nr tile) += A(m x k) row tile * B(k x n) col tile, general
// edge-safe version.
inline void gemm_tile(int mr, int nr, int k, const double* a, int lda,
                      const double* b, int ldb, double* c, int ldc) {
  double acc[kMr][kNr] = {};
  for (int p = 0; p < k; ++p) {
    const double* ap = a + static_cast<std::ptrdiff_t>(p) * lda;
    const double* bp = b + p;
    for (int j = 0; j < nr; ++j) {
      const double bv = bp[static_cast<std::ptrdiff_t>(j) * ldb];
      for (int i = 0; i < mr; ++i) acc[i][j] += ap[i] * bv;
    }
  }
  for (int j = 0; j < nr; ++j) {
    double* cc = c + static_cast<std::ptrdiff_t>(j) * ldc;
    for (int i = 0; i < mr; ++i) cc[i] += acc[i][j];
  }
}

void scalar_dgemm(int m, int n, int k, double alpha, const double* a, int lda,
                  const double* b, int ldb, double beta, double* c, int ldc) {
  if (m <= 0 || n <= 0) return;
  if (beta == 0.0) {
    for (int j = 0; j < n; ++j)
      std::memset(c + static_cast<std::ptrdiff_t>(j) * ldc, 0,
                  sizeof(double) * static_cast<std::size_t>(m));
  } else if (beta != 1.0) {
    for (int j = 0; j < n; ++j) {
      double* cc = c + static_cast<std::ptrdiff_t>(j) * ldc;
      for (int i = 0; i < m; ++i) cc[i] *= beta;
    }
  }
  if (k <= 0 || alpha == 0.0) return;

  if (alpha == 1.0) {
    for (int j0 = 0; j0 < n; j0 += kNr) {
      const int nr = n - j0 < kNr ? n - j0 : kNr;
      for (int i0 = 0; i0 < m; i0 += kMr) {
        const int mr = m - i0 < kMr ? m - i0 : kMr;
        gemm_tile(mr, nr, k, a + i0, lda,
                  b + static_cast<std::ptrdiff_t>(j0) * ldb, ldb,
                  c + i0 + static_cast<std::ptrdiff_t>(j0) * ldc, ldc);
      }
    }
  } else {
    // General alpha path (unused by the factorization, whose updates
    // take alpha = 1 into scratch and subtract explicitly).
    for (int j = 0; j < n; ++j) {
      double* cc = c + static_cast<std::ptrdiff_t>(j) * ldc;
      const double* bc = b + static_cast<std::ptrdiff_t>(j) * ldb;
      for (int p = 0; p < k; ++p) {
        const double bv = alpha * bc[p];
        if (bv == 0.0) continue;
        const double* ac = a + static_cast<std::ptrdiff_t>(p) * lda;
        for (int i = 0; i < m; ++i) cc[i] += bv * ac[i];
      }
    }
  }
}

// Multi-RHS blocked-solve kernels (contract in kernel_backend.hpp).
// These plain loops ARE the per-column bitwise reference: element op
// order matches the sequential single-RHS substitution exactly, and the
// SIMD backends replay the same chains lane-parallel across columns.

void scalar_rhs_panel_update(int m, int k, int ncols, const double* a,
                             int lda, const double* x, int ldx,
                             const int* xrows, double* y, int ldy,
                             const int* yrows, const unsigned char* xskip) {
  for (int i = 0; i < m; ++i) {
    double* yr =
        y + static_cast<std::ptrdiff_t>(yrows ? yrows[i] : i) * ldy;
    const double* ai = a + i;
    for (int c = 0; c < ncols; ++c) {
      double acc = yr[c];
      for (int p = 0; p < k; ++p) {
        if (xskip != nullptr && xskip[p] != 0) continue;
        const double* xr =
            x + static_cast<std::ptrdiff_t>(xrows ? xrows[p] : p) * ldx;
        acc -= ai[static_cast<std::ptrdiff_t>(p) * lda] * xr[c];
      }
      yr[c] = acc;
    }
  }
}

void scalar_rhs_lower_solve(int w, int ncols, const double* a, int lda,
                            double* b, int ldb) {
  for (int ml = 0; ml < w; ++ml) {
    const double* bm = b + static_cast<std::ptrdiff_t>(ml) * ldb;
    bool all_zero = true;
    for (int c = 0; c < ncols && all_zero; ++c) all_zero = bm[c] == 0.0;
    if (all_zero) continue;
    const double* col = a + static_cast<std::ptrdiff_t>(ml) * lda;
    for (int i = ml + 1; i < w; ++i) {
      double* bi = b + static_cast<std::ptrdiff_t>(i) * ldb;
      for (int c = 0; c < ncols; ++c) bi[c] -= col[i] * bm[c];
    }
  }
}

void scalar_rhs_upper_solve(int w, int ncols, const double* a, int lda,
                            double* b, int ldb) {
  for (int ml = w - 1; ml >= 0; --ml) {
    double* bm = b + static_cast<std::ptrdiff_t>(ml) * ldb;
    const double diag = a[static_cast<std::ptrdiff_t>(ml) * lda + ml];
    for (int c = 0; c < ncols; ++c) {
      double acc = bm[c];
      for (int cl = ml + 1; cl < w; ++cl)
        acc -= a[static_cast<std::ptrdiff_t>(cl) * lda + ml] *
               b[static_cast<std::ptrdiff_t>(cl) * ldb + c];
      bm[c] = acc / diag;
    }
  }
}

const KernelOps kScalarOps = {
    "scalar", scalar_dgemm, scalar_dtrsm_lower_unit, scalar_dger,
    scalar_rhs_panel_update, scalar_rhs_lower_solve, scalar_rhs_upper_solve,
};

}  // namespace

const KernelOps* scalar_ops() { return &kScalarOps; }

}  // namespace sstar::blas::kernels
