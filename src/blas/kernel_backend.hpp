// Pluggable SIMD kernel backends for the dense BLAS layer.
//
// The public kernels in blas/dense_blas.hpp keep their signatures, but
// the kernels the factorization and the solves run (dgemm,
// dtrsm_lower_unit and dger for Update(k, j) and Factor(k), the three
// rhs_* panel kernels for the solves) dispatch through a per-process
// table of function pointers — one table per instruction-set backend:
//
//   scalar  — the original from-scratch loops; always available and the
//             bitwise-reference oracle for every other backend;
//   avx2    — 8x6 register-blocked FMA microkernels (x86-64 AVX2+FMA);
//   avx512  — 16x8 register-blocked microkernels (AVX-512 F/DQ/BW/VL);
//   neon    — 8x4 microkernels for AArch64 Advanced SIMD.
//
// The backend is chosen ONCE, at first kernel use: runtime CPU
// detection picks the widest supported ISA, overridable with the
// SSTAR_KERNEL_BACKEND environment variable (values: scalar, avx2,
// avx512, neon, simd = best non-scalar with scalar fallback, auto) or
// programmatically with set_kernel_backend(). Switching backends is a
// quiescent-only operation: no kernel may be executing concurrently.
//
// Determinism contract (DESIGN.md §12): every backend is a pure,
// sequential function of its arguments — for a FIXED backend, factors
// are bitwise-identical across the sequential, shared-memory and
// message-passing executors at every thread/rank count. ACROSS backends
// results differ only by rounding (different accumulation orders); the
// conformance suite (tests/test_kernels_simd.cpp) bounds that
// difference in ULP terms against the scalar oracle.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sstar::blas {

enum class KernelBackend { kScalar, kAvx2, kAvx512, kNeon };

/// The per-backend compute table. Entries implement reference-BLAS
/// semantics (beta == 0 is assignment: the output is never read, so
/// NaN/Inf in uninitialized memory cannot propagate; alpha == 0 or
/// k == 0 reduce to the beta handling alone) and do NO flop accounting:
/// flops come from the task model (core/task_model), so accounting is
/// backend-independent.
struct KernelOps {
  const char* name;
  void (*dgemm)(int m, int n, int k, double alpha, const double* a, int lda,
                const double* b, int ldb, double beta, double* c, int ldc);
  void (*dtrsm_lower_unit)(int n, int m, const double* a, int lda, double* b,
                           int ldb);
  void (*dger)(int m, int n, double alpha, const double* x, const double* y,
               double* a, int lda, int incx, int incy);

  // --- Multi-RHS blocked-solve kernels (serving layer, DESIGN.md §14).
  //
  // RHS panels are ROW-major: system row r's ncols request columns are
  // contiguous at p + r*ld. Per RHS column the element operations are
  // EXACTLY the sequential single-RHS substitution loops — broadcast
  // multiply then subtract, never fused, never reassociated — so for a
  // FIXED backend every column of a blocked solve is bitwise-identical
  // to the width-1 solve of that column alone. SIMD backends vectorize
  // ACROSS the independent RHS columns (lanes never interact) and run
  // ncols%W tail columns through single-lane non-contracting intrinsics
  // so tails match vector lanes bit for bit.

  /// y(i, :) -= sum_p a(i, p) * x(p, :), p ascending per element. Row p
  /// of x lives at x + (xrows ? xrows[p] : p)*ldx and row i of y at
  /// y + (yrows ? yrows[i] : i)*ldy: the forward sweep scatters panel
  /// eliminations into mapped rows, the backward sweep gathers solved
  /// column blocks. xskip (length k, may be null) marks x rows to skip
  /// entirely; the dispatch wrapper precomputes it from all-zero rows so
  /// the skip decision is backend-independent.
  void (*rhs_panel_update)(int m, int k, int ncols, const double* a, int lda,
                           const double* x, int ldx, const int* xrows,
                           double* y, int ldy, const int* yrows,
                           const unsigned char* xskip);
  /// In-place unit-lower-triangular solve of the w x ncols row-major
  /// panel b against the column-major diagonal block a, skipping rows
  /// that are entirely zero (the sequential forward loop's bm == 0.0
  /// short-cut; with negative-zero-free, non-underflowing data the skip
  /// is unobservable in the results).
  void (*rhs_lower_solve)(int w, int ncols, const double* a, int lda,
                          double* b, int ldb);
  /// In-place upper-triangular solve, LEFT-looking row order: for each
  /// row ml descending, subtract a(ml, cl)*b(cl, :) for cl ascending,
  /// then divide by the diagonal — the exact op order of the sequential
  /// backward substitution rows.
  void (*rhs_upper_solve)(int w, int ncols, const double* a, int lda,
                          double* b, int ldb);
};

/// Canonical lowercase name ("scalar", "avx2", "avx512", "neon").
const char* kernel_backend_name(KernelBackend b);

/// Parse a canonical name; std::nullopt for anything unknown.
std::optional<KernelBackend> parse_kernel_backend(std::string_view name);

/// True if this build carries the backend's code AND the running CPU
/// (and OS state, for AVX) supports it. kScalar is always true.
bool kernel_backend_supported(KernelBackend b);

/// Every supported backend, scalar first, then by increasing width.
std::vector<KernelBackend> supported_kernel_backends();

/// The widest supported backend (what auto-detection picks).
KernelBackend best_kernel_backend();

/// The backend kernels currently dispatch to. First call resolves the
/// SSTAR_KERNEL_BACKEND override / auto-detection.
KernelBackend active_kernel_backend();

/// Select a backend for all subsequent kernel calls. Returns false —
/// and leaves the selection unchanged — if the backend is not supported
/// on this host. Quiescent-only: no concurrent kernel execution.
bool set_kernel_backend(KernelBackend b);

/// The active backend's dispatch table (resolving the selection on
/// first use). Internal seam for dense_blas.cpp and the conformance
/// tests; application code calls the blas:: kernels instead.
const KernelOps& active_kernel_ops();

/// A specific backend's table, or nullptr when unsupported. Lets the
/// conformance fuzzer drive every backend directly without touching the
/// process-wide selection.
const KernelOps* kernel_ops_for(KernelBackend b);

/// Human-readable one-liner: active backend plus the supported set,
/// e.g. "avx512 (supported: scalar avx2 avx512)". Benchmarks and tools
/// print it so recorded results are attributable.
std::string kernel_backend_summary();

}  // namespace sstar::blas
