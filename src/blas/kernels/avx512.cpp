// AVX-512 backend: 16x8 register microkernel (16 accumulator zmm of the
// 32 architectural registers), 8-wide substitution and rank-1 loops.
// Compiled with -mavx512f -mavx512dq -mavx512bw -mavx512vl via per-file
// options in src/CMakeLists.txt; elsewhere this TU is a null getter.
#include "blas/kernels/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)

#include <immintrin.h>

#include "blas/kernels/microkernel.hpp"

namespace sstar::blas::kernels {
namespace {

struct Avx512Abi {
  using V = __m512d;
  static constexpr int W = 8;
  static V zero() { return _mm512_setzero_pd(); }
  static V broadcast(double x) { return _mm512_set1_pd(x); }
  static V load(const double* p) { return _mm512_load_pd(p); }
  static V loadu(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, V v) { _mm512_store_pd(p, v); }
  static void storeu(double* p, V v) { _mm512_storeu_pd(p, v); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V fmadd(V a, V b, V acc) { return _mm512_fmadd_pd(a, b, acc); }
  static V fnmadd(V a, V b, V acc) { return _mm512_fnmadd_pd(a, b, acc); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V div(V a, V b) { return _mm512_div_pd(a, b); }
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

void avx512_dgemm(int m, int n, int k, double alpha, const double* a,
                  int lda, const double* b, int ldb, double beta, double* c,
                  int ldc) {
  gemm_driver<Avx512Abi, 2, 8>(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void avx512_dtrsm_lower_unit(int n, int m, const double* a, int lda,
                             double* b, int ldb) {
  trsm_lower_unit<Avx512Abi>(n, m, a, lda, b, ldb);
}

void avx512_dger(int m, int n, double alpha, const double* x,
                 const double* y, double* a, int lda, int incx, int incy) {
  ger<Avx512Abi>(m, n, alpha, x, y, a, lda, incx, incy);
}

void avx512_rhs_panel_update(int m, int k, int ncols, const double* a,
                             int lda, const double* x, int ldx,
                             const int* xrows, double* y, int ldy,
                             const int* yrows, const unsigned char* xskip) {
  rhs_panel_update<Avx512Abi>(m, k, ncols, a, lda, x, ldx, xrows, y, ldy,
                              yrows, xskip);
}

void avx512_rhs_lower_solve(int w, int ncols, const double* a, int lda,
                            double* b, int ldb) {
  rhs_lower_solve<Avx512Abi>(w, ncols, a, lda, b, ldb);
}

void avx512_rhs_upper_solve(int w, int ncols, const double* a, int lda,
                            double* b, int ldb) {
  rhs_upper_solve<Avx512Abi>(w, ncols, a, lda, b, ldb);
}

const KernelOps kAvx512Ops = {
    "avx512", avx512_dgemm, avx512_dtrsm_lower_unit, avx512_dger,
    avx512_rhs_panel_update, avx512_rhs_lower_solve, avx512_rhs_upper_solve,
};

}  // namespace

const KernelOps* avx512_ops() { return &kAvx512Ops; }

}  // namespace sstar::blas::kernels

#else  // !AVX-512

namespace sstar::blas::kernels {
const KernelOps* avx512_ops() { return nullptr; }
}  // namespace sstar::blas::kernels

#endif
