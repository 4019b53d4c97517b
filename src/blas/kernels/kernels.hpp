// Internal seam between the dispatch layer (blas/kernel_backend.cpp)
// and the per-ISA kernel translation units. Each backend TU defines one
// getter; getters return nullptr when the build does not carry that
// backend's code (wrong architecture, or the compiler lacks the ISA
// flags — see the per-file compile options in src/CMakeLists.txt).
// Runtime CPU capability is checked separately by the dispatch layer.
#pragma once

#include "blas/kernel_backend.hpp"

namespace sstar::blas::kernels {

/// Always non-null: the reference scalar backend.
const KernelOps* scalar_ops();

/// Non-null iff compiled with AVX2+FMA codegen (x86-64 only).
const KernelOps* avx2_ops();

/// Non-null iff compiled with AVX-512 F/DQ/BW/VL codegen (x86-64 only).
const KernelOps* avx512_ops();

/// Non-null iff compiled for AArch64 Advanced SIMD.
const KernelOps* neon_ops();

// --- shared helpers (header-only, inlined into every backend TU) ------

// The helper is deliberately `static`: backend TUs are compiled
// with per-file ISA flags, and a namespace-scope inline function would
// have one COMDAT copy picked across ALL TUs — possibly the one with
// illegal instructions for the running CPU. Internal linkage keeps each
// TU's codegen private (same discipline as microkernel.hpp).

/// Apply beta to C (m x n, ld ldc) with assignment semantics at
/// beta == 0: the output is WRITTEN, never read, so NaN/Inf in
/// uninitialized memory cannot propagate (reference-BLAS behaviour).
[[maybe_unused]] static inline void scale_c(int m, int n, double beta,
                                            double* c, int ldc) {
  if (beta == 1.0) return;
  for (int j = 0; j < n; ++j) {
    double* cc = c + static_cast<std::ptrdiff_t>(j) * ldc;
    if (beta == 0.0) {
      for (int i = 0; i < m; ++i) cc[i] = 0.0;
    } else {
      for (int i = 0; i < m; ++i) cc[i] *= beta;
    }
  }
}

}  // namespace sstar::blas::kernels
