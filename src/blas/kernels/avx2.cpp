// AVX2+FMA backend: 8x6 register microkernel (12 accumulator ymm), 4-wide
// fused substitution and rank-1 loops. Compiled with -mavx2 -mfma via
// per-file options in src/CMakeLists.txt; on other architectures (or a
// compiler without the flags) this TU compiles to a null getter and the
// dispatch layer never selects the backend.
#include "blas/kernels/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "blas/kernels/microkernel.hpp"

namespace sstar::blas::kernels {
namespace {

struct Avx2Abi {
  using V = __m256d;
  static constexpr int W = 4;
  static V zero() { return _mm256_setzero_pd(); }
  static V broadcast(double x) { return _mm256_set1_pd(x); }
  static V load(const double* p) { return _mm256_load_pd(p); }
  static V loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, V v) { _mm256_store_pd(p, v); }
  static void storeu(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V fmadd(V a, V b, V acc) { return _mm256_fmadd_pd(a, b, acc); }
  static V fnmadd(V a, V b, V acc) { return _mm256_fnmadd_pd(a, b, acc); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V div(V a, V b) { return _mm256_div_pd(a, b); }
  // Single-lane non-contracting ops for solve-kernel tail columns: this
  // TU compiles with -mfma, so plain double mul/sub could contract.
  static double mul1(double a, double b) {
    return _mm_cvtsd_f64(_mm_mul_sd(_mm_set_sd(a), _mm_set_sd(b)));
  }
  static double sub1(double a, double b) {
    return _mm_cvtsd_f64(_mm_sub_sd(_mm_set_sd(a), _mm_set_sd(b)));
  }
  static double div1(double a, double b) {
    return _mm_cvtsd_f64(_mm_div_sd(_mm_set_sd(a), _mm_set_sd(b)));
  }
};

void avx2_dgemm(int m, int n, int k, double alpha, const double* a, int lda,
                const double* b, int ldb, double beta, double* c, int ldc) {
  gemm_driver<Avx2Abi, 2, 6>(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void avx2_dtrsm_lower_unit(int n, int m, const double* a, int lda, double* b,
                           int ldb) {
  trsm_lower_unit<Avx2Abi>(n, m, a, lda, b, ldb);
}

void avx2_dger(int m, int n, double alpha, const double* x, const double* y,
               double* a, int lda, int incx, int incy) {
  ger<Avx2Abi>(m, n, alpha, x, y, a, lda, incx, incy);
}

void avx2_rhs_panel_update(int m, int k, int ncols, const double* a, int lda,
                           const double* x, int ldx, const int* xrows,
                           double* y, int ldy, const int* yrows,
                           const unsigned char* xskip) {
  rhs_panel_update<Avx2Abi>(m, k, ncols, a, lda, x, ldx, xrows, y, ldy,
                            yrows, xskip);
}

void avx2_rhs_lower_solve(int w, int ncols, const double* a, int lda,
                          double* b, int ldb) {
  rhs_lower_solve<Avx2Abi>(w, ncols, a, lda, b, ldb);
}

void avx2_rhs_upper_solve(int w, int ncols, const double* a, int lda,
                          double* b, int ldb) {
  rhs_upper_solve<Avx2Abi>(w, ncols, a, lda, b, ldb);
}

const KernelOps kAvx2Ops = {
    "avx2", avx2_dgemm, avx2_dtrsm_lower_unit, avx2_dger,
    avx2_rhs_panel_update, avx2_rhs_lower_solve, avx2_rhs_upper_solve,
};

}  // namespace

const KernelOps* avx2_ops() { return &kAvx2Ops; }

}  // namespace sstar::blas::kernels

#else  // !(__AVX2__ && __FMA__)

namespace sstar::blas::kernels {
const KernelOps* avx2_ops() { return nullptr; }
}  // namespace sstar::blas::kernels

#endif
