// AArch64 Advanced SIMD (NEON) backend: 8x4 register microkernel built
// from 2-lane float64x2 vectors (16 accumulator q-registers of 32), with
// 2-wide substitution and rank-1 loops. Advanced SIMD is mandatory on
// AArch64, so no extra compile flags are needed; on other architectures
// this TU is a null getter.
#include "blas/kernels/kernels.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include "blas/kernels/microkernel.hpp"

namespace sstar::blas::kernels {
namespace {

struct NeonAbi {
  using V = float64x2_t;
  static constexpr int W = 2;
  static V zero() { return vdupq_n_f64(0.0); }
  static V broadcast(double x) { return vdupq_n_f64(x); }
  static V load(const double* p) { return vld1q_f64(p); }
  static V loadu(const double* p) { return vld1q_f64(p); }
  static void store(double* p, V v) { vst1q_f64(p, v); }
  static void storeu(double* p, V v) { vst1q_f64(p, v); }
  static V add(V a, V b) { return vaddq_f64(a, b); }
  static V fmadd(V a, V b, V acc) { return vfmaq_f64(acc, a, b); }
  static V fnmadd(V a, V b, V acc) { return vfmsq_f64(acc, a, b); }
  static V mul(V a, V b) { return vmulq_f64(a, b); }
  static V sub(V a, V b) { return vsubq_f64(a, b); }
  static V div(V a, V b) { return vdivq_f64(a, b); }
  // Single-lane non-contracting ops for solve-kernel tail columns:
  // float64x1 intrinsics stay discrete mul/sub even at -ffp-contract.
  static double mul1(double a, double b) {
    return vget_lane_f64(vmul_f64(vdup_n_f64(a), vdup_n_f64(b)), 0);
  }
  static double sub1(double a, double b) {
    return vget_lane_f64(vsub_f64(vdup_n_f64(a), vdup_n_f64(b)), 0);
  }
  static double div1(double a, double b) {
    return vget_lane_f64(vdiv_f64(vdup_n_f64(a), vdup_n_f64(b)), 0);
  }
};

void neon_dgemm(int m, int n, int k, double alpha, const double* a, int lda,
                const double* b, int ldb, double beta, double* c, int ldc) {
  gemm_driver<NeonAbi, 4, 4>(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void neon_dtrsm_lower_unit(int n, int m, const double* a, int lda, double* b,
                           int ldb) {
  trsm_lower_unit<NeonAbi>(n, m, a, lda, b, ldb);
}

void neon_dger(int m, int n, double alpha, const double* x, const double* y,
               double* a, int lda, int incx, int incy) {
  ger<NeonAbi>(m, n, alpha, x, y, a, lda, incx, incy);
}

void neon_rhs_panel_update(int m, int k, int ncols, const double* a, int lda,
                           const double* x, int ldx, const int* xrows,
                           double* y, int ldy, const int* yrows,
                           const unsigned char* xskip) {
  rhs_panel_update<NeonAbi>(m, k, ncols, a, lda, x, ldx, xrows, y, ldy,
                            yrows, xskip);
}

void neon_rhs_lower_solve(int w, int ncols, const double* a, int lda,
                          double* b, int ldb) {
  rhs_lower_solve<NeonAbi>(w, ncols, a, lda, b, ldb);
}

void neon_rhs_upper_solve(int w, int ncols, const double* a, int lda,
                          double* b, int ldb) {
  rhs_upper_solve<NeonAbi>(w, ncols, a, lda, b, ldb);
}

const KernelOps kNeonOps = {
    "neon", neon_dgemm, neon_dtrsm_lower_unit, neon_dger,
    neon_rhs_panel_update, neon_rhs_lower_solve, neon_rhs_upper_solve,
};

}  // namespace

const KernelOps* neon_ops() { return &kNeonOps; }

}  // namespace sstar::blas::kernels

#else  // !AArch64 NEON

namespace sstar::blas::kernels {
const KernelOps* neon_ops() { return nullptr; }
}  // namespace sstar::blas::kernels

#endif
