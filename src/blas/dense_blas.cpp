#include "blas/dense_blas.hpp"

#include <cmath>
#include <vector>

#include "blas/kernel_backend.hpp"

namespace sstar::blas {

int idamax(int n, const double* x, int incx) {
  if (n <= 0) return 0;
  int best = 0;
  double bestval = -1.0;
  for (int i = 0; i < n; ++i) {
    const double v = std::fabs(x[static_cast<std::ptrdiff_t>(i) * incx]);
    if (v > bestval) {
      bestval = v;
      best = i;
    } else if (std::isnan(v)) {
      best = i;  // the first NaN wins, so a pivot search cannot skip it
      break;
    }
  }
  return best;
}

void dscal(int n, double alpha, double* x, int incx) {
  for (int i = 0; i < n; ++i) x[static_cast<std::ptrdiff_t>(i) * incx] *= alpha;
}

void dswap(int n, double* x, double* y, int incx, int incy) {
  for (int i = 0; i < n; ++i) {
    const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(i) * incx;
    const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(i) * incy;
    const double t = x[ix];
    x[ix] = y[iy];
    y[iy] = t;
  }
}

void dger(int m, int n, double alpha, const double* x, const double* y,
          double* a, int lda, int incx, int incy) {
  active_kernel_ops().dger(m, n, alpha, x, y, a, lda, incx, incy);
}

void dtrsv_lower_unit(int n, const double* a, int lda, double* x) {
  for (int j = 0; j < n; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    const double* col = a + static_cast<std::ptrdiff_t>(j) * lda;
    for (int i = j + 1; i < n; ++i) x[i] -= xj * col[i];
  }
}

void dtrsv_upper(int n, const double* a, int lda, double* x) {
  for (int j = n - 1; j >= 0; --j) {
    const double* col = a + static_cast<std::ptrdiff_t>(j) * lda;
    x[j] /= col[j];
    const double xj = x[j];
    if (xj == 0.0) continue;
    for (int i = 0; i < j; ++i) x[i] -= xj * col[i];
  }
}

void dtrsm_lower_unit(int n, int m, const double* a, int lda, double* b,
                      int ldb) {
  active_kernel_ops().dtrsm_lower_unit(n, m, a, lda, b, ldb);
}

void dgemm(int m, int n, int k, double alpha, const double* a, int lda,
           const double* b, int ldb, double beta, double* c, int ldc) {
  active_kernel_ops().dgemm(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void rhs_panel_update(int m, int k, int ncols, const double* a, int lda,
                      const double* x, int ldx, const int* xrows, double* y,
                      int ldy, const int* yrows, bool skip_zero_x_rows) {
  if (m <= 0 || k <= 0 || ncols <= 0) return;
  const unsigned char* skip = nullptr;
  // Solve sessions are per-thread, so per-thread scratch for the skip
  // mask keeps this wrapper allocation-free in steady state.
  thread_local std::vector<unsigned char> skip_buf;
  if (skip_zero_x_rows) {
    skip_buf.assign(static_cast<std::size_t>(k), 0);
    for (int p = 0; p < k; ++p) {
      const double* xr =
          x + static_cast<std::ptrdiff_t>(xrows ? xrows[p] : p) * ldx;
      bool all_zero = true;
      for (int c = 0; c < ncols && all_zero; ++c) all_zero = xr[c] == 0.0;
      skip_buf[static_cast<std::size_t>(p)] = all_zero ? 1 : 0;
    }
    skip = skip_buf.data();
  }
  active_kernel_ops().rhs_panel_update(m, k, ncols, a, lda, x, ldx, xrows, y,
                                       ldy, yrows, skip);
}

void rhs_lower_solve(int w, int ncols, const double* a, int lda, double* b,
                     int ldb) {
  if (w <= 0 || ncols <= 0) return;
  active_kernel_ops().rhs_lower_solve(w, ncols, a, lda, b, ldb);
}

void rhs_upper_solve(int w, int ncols, const double* a, int lda, double* b,
                     int ldb) {
  if (w <= 0 || ncols <= 0) return;
  active_kernel_ops().rhs_upper_solve(w, ncols, a, lda, b, ldb);
}

}  // namespace sstar::blas
