// Generic register-blocked, cache-tiled kernel bodies, parameterized on
// a per-ISA vector ABI. Each SIMD backend TU (avx2.cpp, avx512.cpp,
// neon.cpp) defines its Abi struct in an ANONYMOUS namespace and
// instantiates these templates with it.
//
// ODR DISCIPLINE (load-bearing): these TUs are compiled with per-file
// ISA flags (-mavx2, -mavx512f, ...). Any function with external
// linkage compiled in such a TU could be COMDAT-merged over an
// identically-named copy from a plain TU and then execute illegal
// instructions on older CPUs. Therefore everything here is a template
// over the Abi type — an anonymous-namespace type gives every
// instantiation internal linkage, so each backend TU keeps its own
// private copies. For the same reason this header must not include
// project headers with inline namespace-scope functions (util/check.hpp
// etc.), and backend TUs must not instantiate std:: containers.
//
// Abi requirements:
//   using V           — vector of W doubles;
//   static constexpr int W;
//   zero(), broadcast(double), load(p) (64B-aligned), loadu(p),
//   store(p, V) (aligned), storeu(p, V), add(a, b),
//   fmadd(a, b, acc) = acc + a*b, fnmadd(a, b, acc) = acc - a*b;
//   mul(a, b), sub(a, b), div(a, b) — elementwise UNFUSED vector ops
//   for the multi-RHS solve kernels (explicit intrinsics, so the
//   compiler cannot contract mul+sub into an FMA);
//   mul1/sub1/div1(double, double) — the single-lane equivalents, via
//   scalar SIMD intrinsics. These TUs compile with FMA codegen enabled,
//   so a plain `acc - a*x` in tail code could contract and break the
//   tail-column-equals-vector-lane bitwise contract; all solve-kernel
//   tails go through these instead.
//
// The DGEMM is the classic three-level blocking: KC x MC cache tiles,
// A packed (with alpha folded in) into MR-row strips zero-padded to a
// strip boundary, an MR x NR register microkernel over unpacked B
// columns (column-major B already walks unit-stride in k). Determinism:
// every loop bound and path choice depends only on (m, n, k), never on
// data, so a fixed backend is a pure function of its inputs.
#pragma once

#include <cstdlib>
#include <cstring>

#include "blas/kernels/kernels.hpp"

namespace sstar::blas::kernels {

/// Thread-local scratch for packed A tiles. Raw aligned_alloc/free —
/// deliberately not a std:: container, so no externally-visible
/// template code is generated in an ISA-flagged TU (see ODR note).
template <class Abi>
struct PackBuffer {
  double* data = nullptr;
  std::size_t capacity = 0;  // in doubles

  ~PackBuffer() { std::free(data); }

  double* ensure(std::size_t n) {
    if (n > capacity) {
      std::free(data);
      std::size_t bytes = n * sizeof(double);
      bytes += (64 - bytes % 64) % 64;  // aligned_alloc needs a multiple
      data = static_cast<double*>(std::aligned_alloc(64, bytes));
      if (data == nullptr) std::abort();  // allocation failure: no recovery
      capacity = n;
    }
    return data;
  }
};

/// Pack the mc x kc tile of A (column-major, ld lda) into MR-row strips
/// with alpha folded in: strip s holds rows [s*MR, s*MR + MR), laid out
/// p-major (ap[s*MR*kc + p*MR + r]); rows past mc are zero so the
/// microkernel always reads full, aligned MR-row columns.
template <class Abi, int MR>
inline void pack_a(int mc, int kc, double alpha, const double* a, int lda,
                   double* ap) {
  for (int s = 0; s < mc; s += MR) {
    const int rows = mc - s < MR ? mc - s : MR;
    double* dst = ap + static_cast<std::ptrdiff_t>(s) * kc;
    for (int p = 0; p < kc; ++p) {
      const double* col = a + s + static_cast<std::ptrdiff_t>(p) * lda;
      double* dp = dst + static_cast<std::ptrdiff_t>(p) * MR;
      for (int r = 0; r < rows; ++r) dp[r] = alpha * col[r];
      for (int r = rows; r < MR; ++r) dp[r] = 0.0;
    }
  }
}

/// MR x NRT register tile: C[0..mr, 0..NRT) += Ap * B. Ap is one packed
/// strip (aligned, zero-padded rows); B is unpacked column-major. mr may
/// be short on the last strip — accumulators still run full width and
/// the epilogue writes only the valid rows.
template <class Abi, int MRV, int NRT>
inline void gemm_micro(int kc, const double* ap, const double* b, int ldb,
                       double* c, int ldc, int mr) {
  using V = typename Abi::V;
  constexpr int MR = MRV * Abi::W;
  V acc[MRV][NRT];
  for (int v = 0; v < MRV; ++v)
    for (int j = 0; j < NRT; ++j) acc[v][j] = Abi::zero();
  for (int p = 0; p < kc; ++p) {
    V av[MRV];
    for (int v = 0; v < MRV; ++v)
      av[v] = Abi::load(ap + static_cast<std::ptrdiff_t>(p) * MR +
                        v * Abi::W);
    for (int j = 0; j < NRT; ++j) {
      const V bv =
          Abi::broadcast(b[static_cast<std::ptrdiff_t>(j) * ldb + p]);
      for (int v = 0; v < MRV; ++v)
        acc[v][j] = Abi::fmadd(av[v], bv, acc[v][j]);
    }
  }
  if (mr == MR) {
    for (int j = 0; j < NRT; ++j) {
      double* cc = c + static_cast<std::ptrdiff_t>(j) * ldc;
      for (int v = 0; v < MRV; ++v) {
        double* pos = cc + v * Abi::W;
        Abi::storeu(pos, Abi::add(Abi::loadu(pos), acc[v][j]));
      }
    }
  } else {
    alignas(64) double tmp[MR];
    for (int j = 0; j < NRT; ++j) {
      for (int v = 0; v < MRV; ++v) Abi::store(tmp + v * Abi::W, acc[v][j]);
      double* cc = c + static_cast<std::ptrdiff_t>(j) * ldc;
      for (int r = 0; r < mr; ++r) cc[r] += tmp[r];
    }
  }
}

/// One row-panel of microtiles: all MR-strips of a packed mc x kc tile
/// against NRT columns of B.
template <class Abi, int MRV, int NRT>
inline void gemm_panel(int mc, int kc, const double* ap, const double* b,
                       int ldb, double* c, int ldc) {
  constexpr int MR = MRV * Abi::W;
  for (int ir = 0; ir < mc; ir += MR) {
    const int mr = mc - ir < MR ? mc - ir : MR;
    gemm_micro<Abi, MRV, NRT>(kc, ap + static_cast<std::ptrdiff_t>(ir) * kc,
                              b, ldb, c + ir, ldc, mr);
  }
}

/// Full DGEMM driver: C = alpha*A*B + beta*C, reference-BLAS semantics
/// (beta == 0 assigns, alpha == 0 / k <= 0 reduce to beta handling).
template <class Abi, int MRV, int NR>
inline void gemm_driver(int m, int n, int k, double alpha, const double* a,
                        int lda, const double* b, int ldb, double beta,
                        double* c, int ldc) {
  constexpr int MR = MRV * Abi::W;
  constexpr int KC = 256;  // k cache tile (A strip stays in L1/L2)
  constexpr int MC = 192;  // m cache tile (packed tile ~KC*MC*8B in L2)
  if (m <= 0 || n <= 0) return;
  scale_c(m, n, beta, c, ldc);
  if (k <= 0 || alpha == 0.0) return;

  thread_local PackBuffer<Abi> buf;
  for (int pc = 0; pc < k; pc += KC) {
    const int kc = k - pc < KC ? k - pc : KC;
    for (int ic = 0; ic < m; ic += MC) {
      const int mc = m - ic < MC ? m - ic : MC;
      const int mc_pad = (mc + MR - 1) / MR * MR;
      double* ap = buf.ensure(static_cast<std::size_t>(mc_pad) *
                              static_cast<std::size_t>(kc));
      pack_a<Abi, MR>(mc, kc, alpha,
                      a + ic + static_cast<std::ptrdiff_t>(pc) * lda, lda,
                      ap);
      for (int jr = 0; jr < n; jr += NR) {
        const int nr = n - jr < NR ? n - jr : NR;
        const double* bb =
            b + pc + static_cast<std::ptrdiff_t>(jr) * ldb;
        double* cb = c + ic + static_cast<std::ptrdiff_t>(jr) * ldc;
        // nr <= NR always; the larger cases are dead (but valid) code
        // for backends with a narrower register tile.
        switch (nr) {
          case 8:
            gemm_panel<Abi, MRV, 8>(mc, kc, ap, bb, ldb, cb, ldc);
            break;
          case 7:
            gemm_panel<Abi, MRV, 7>(mc, kc, ap, bb, ldb, cb, ldc);
            break;
          case 6:
            gemm_panel<Abi, MRV, 6>(mc, kc, ap, bb, ldb, cb, ldc);
            break;
          case 5:
            gemm_panel<Abi, MRV, 5>(mc, kc, ap, bb, ldb, cb, ldc);
            break;
          case 4:
            gemm_panel<Abi, MRV, 4>(mc, kc, ap, bb, ldb, cb, ldc);
            break;
          case 3:
            gemm_panel<Abi, MRV, 3>(mc, kc, ap, bb, ldb, cb, ldc);
            break;
          case 2:
            gemm_panel<Abi, MRV, 2>(mc, kc, ap, bb, ldb, cb, ldc);
            break;
          default:
            gemm_panel<Abi, MRV, 1>(mc, kc, ap, bb, ldb, cb, ldc);
            break;
        }
      }
    }
  }
}

/// Forward substitution L X = B (L n x n unit lower, B n x m), columns
/// of B in groups of four so each L column load is reused four times;
/// the row update runs W-wide with fused multiply-subtract.
template <class Abi>
inline void trsm_lower_unit(int n, int m, const double* a, int lda,
                            double* b, int ldb) {
  using V = typename Abi::V;
  constexpr int W = Abi::W;
  int c0 = 0;
  for (; c0 + 4 <= m; c0 += 4) {
    double* x0 = b + static_cast<std::ptrdiff_t>(c0 + 0) * ldb;
    double* x1 = b + static_cast<std::ptrdiff_t>(c0 + 1) * ldb;
    double* x2 = b + static_cast<std::ptrdiff_t>(c0 + 2) * ldb;
    double* x3 = b + static_cast<std::ptrdiff_t>(c0 + 3) * ldb;
    for (int j = 0; j < n; ++j) {
      const double s0 = x0[j], s1 = x1[j], s2 = x2[j], s3 = x3[j];
      if (s0 == 0.0 && s1 == 0.0 && s2 == 0.0 && s3 == 0.0) continue;
      const double* col = a + static_cast<std::ptrdiff_t>(j) * lda;
      const V b0 = Abi::broadcast(s0), b1 = Abi::broadcast(s1);
      const V b2 = Abi::broadcast(s2), b3 = Abi::broadcast(s3);
      int i = j + 1;
      for (; i + W <= n; i += W) {
        const V cv = Abi::loadu(col + i);
        Abi::storeu(x0 + i, Abi::fnmadd(cv, b0, Abi::loadu(x0 + i)));
        Abi::storeu(x1 + i, Abi::fnmadd(cv, b1, Abi::loadu(x1 + i)));
        Abi::storeu(x2 + i, Abi::fnmadd(cv, b2, Abi::loadu(x2 + i)));
        Abi::storeu(x3 + i, Abi::fnmadd(cv, b3, Abi::loadu(x3 + i)));
      }
      for (; i < n; ++i) {
        const double cv = col[i];
        x0[i] -= s0 * cv;
        x1[i] -= s1 * cv;
        x2[i] -= s2 * cv;
        x3[i] -= s3 * cv;
      }
    }
  }
  for (; c0 < m; ++c0) {
    double* x = b + static_cast<std::ptrdiff_t>(c0) * ldb;
    for (int j = 0; j < n; ++j) {
      const double s = x[j];
      if (s == 0.0) continue;
      const double* col = a + static_cast<std::ptrdiff_t>(j) * lda;
      const V bs = Abi::broadcast(s);
      int i = j + 1;
      for (; i + W <= n; i += W)
        Abi::storeu(x + i, Abi::fnmadd(Abi::loadu(col + i), bs,
                                       Abi::loadu(x + i)));
      for (; i < n; ++i) x[i] -= s * col[i];
    }
  }
}

/// Rank-1 update A += alpha * x * yT; the unit-incx hot path (column
/// updates in Factor(k)) runs W-wide FMA, strided x falls back to the
/// scalar loop.
template <class Abi>
inline void ger(int m, int n, double alpha, const double* x, const double* y,
                double* a, int lda, int incx, int incy) {
  using V = typename Abi::V;
  constexpr int W = Abi::W;
  if (m <= 0 || n <= 0 || alpha == 0.0) return;
  for (int j = 0; j < n; ++j) {
    const double yj = alpha * y[static_cast<std::ptrdiff_t>(j) * incy];
    if (yj == 0.0) continue;
    double* col = a + static_cast<std::ptrdiff_t>(j) * lda;
    if (incx == 1) {
      const V bv = Abi::broadcast(yj);
      int i = 0;
      for (; i + W <= m; i += W)
        Abi::storeu(col + i,
                    Abi::fmadd(Abi::loadu(x + i), bv, Abi::loadu(col + i)));
      for (; i < m; ++i) col[i] += x[i] * yj;
    } else {
      for (int i = 0; i < m; ++i)
        col[i] += x[static_cast<std::ptrdiff_t>(i) * incx] * yj;
    }
  }
}

// --- Multi-RHS blocked-solve panel kernels (serving layer) -----------
//
// Row-major RHS panels; contract in blas/kernel_backend.hpp. Vector
// lanes are fully independent — every element op is broadcast-multiply
// then subtract (mul/sub, never fmadd) — so each RHS column's
// arithmetic chain is identical to the width-1 substitution regardless
// of ncols or lane position. Tail columns (ncols % W) use the Abi's
// single-lane non-contracting ops (mul1/sub1/div1); see the Abi notes
// above for why plain double expressions are not safe here.

/// y(i, :) -= sum_p a(i, p) * x(p, :), p ascending per element; row
/// maps and skip mask per the KernelOps contract.
template <class Abi>
inline void rhs_panel_update(int m, int k, int ncols, const double* a,
                             int lda, const double* x, int ldx,
                             const int* xrows, double* y, int ldy,
                             const int* yrows, const unsigned char* xskip) {
  using V = typename Abi::V;
  constexpr int W = Abi::W;
  const int nv = ncols - ncols % W;
  for (int i = 0; i < m; ++i) {
    double* yr = y + static_cast<std::ptrdiff_t>(yrows ? yrows[i] : i) * ldy;
    const double* ai = a + i;
    for (int c = 0; c < nv; c += W) {
      V acc = Abi::loadu(yr + c);
      for (int p = 0; p < k; ++p) {
        if (xskip != nullptr && xskip[p] != 0) continue;
        const double* xr =
            x + static_cast<std::ptrdiff_t>(xrows ? xrows[p] : p) * ldx;
        const V av =
            Abi::broadcast(ai[static_cast<std::ptrdiff_t>(p) * lda]);
        acc = Abi::sub(acc, Abi::mul(av, Abi::loadu(xr + c)));
      }
      Abi::storeu(yr + c, acc);
    }
    for (int c = nv; c < ncols; ++c) {
      double acc = yr[c];
      for (int p = 0; p < k; ++p) {
        if (xskip != nullptr && xskip[p] != 0) continue;
        const double* xr =
            x + static_cast<std::ptrdiff_t>(xrows ? xrows[p] : p) * ldx;
        acc = Abi::sub1(acc,
                        Abi::mul1(ai[static_cast<std::ptrdiff_t>(p) * lda],
                                  xr[c]));
      }
      yr[c] = acc;
    }
  }
}

/// In-place unit-lower solve of the w x ncols row-major panel b; rows
/// that are entirely zero are skipped (sequential bm == 0.0 short-cut).
template <class Abi>
inline void rhs_lower_solve(int w, int ncols, const double* a, int lda,
                            double* b, int ldb) {
  using V = typename Abi::V;
  constexpr int W = Abi::W;
  const int nv = ncols - ncols % W;
  for (int ml = 0; ml < w; ++ml) {
    const double* bm = b + static_cast<std::ptrdiff_t>(ml) * ldb;
    bool all_zero = true;
    for (int c = 0; c < ncols && all_zero; ++c) all_zero = bm[c] == 0.0;
    if (all_zero) continue;
    const double* col = a + static_cast<std::ptrdiff_t>(ml) * lda;
    for (int i = ml + 1; i < w; ++i) {
      double* bi = b + static_cast<std::ptrdiff_t>(i) * ldb;
      const V av = Abi::broadcast(col[i]);
      for (int c = 0; c < nv; c += W)
        Abi::storeu(bi + c, Abi::sub(Abi::loadu(bi + c),
                                     Abi::mul(av, Abi::loadu(bm + c))));
      for (int c = nv; c < ncols; ++c)
        bi[c] = Abi::sub1(bi[c], Abi::mul1(col[i], bm[c]));
    }
  }
}

/// In-place upper solve, left-looking row order (rows ml descending;
/// per row: subtract cl-ascending, then divide by the diagonal).
template <class Abi>
inline void rhs_upper_solve(int w, int ncols, const double* a, int lda,
                            double* b, int ldb) {
  using V = typename Abi::V;
  constexpr int W = Abi::W;
  const int nv = ncols - ncols % W;
  for (int ml = w - 1; ml >= 0; --ml) {
    double* bm = b + static_cast<std::ptrdiff_t>(ml) * ldb;
    const double diag = a[static_cast<std::ptrdiff_t>(ml) * lda + ml];
    for (int c = 0; c < nv; c += W) {
      V acc = Abi::loadu(bm + c);
      for (int cl = ml + 1; cl < w; ++cl) {
        const V av =
            Abi::broadcast(a[static_cast<std::ptrdiff_t>(cl) * lda + ml]);
        acc = Abi::sub(
            acc,
            Abi::mul(av, Abi::loadu(
                             b + static_cast<std::ptrdiff_t>(cl) * ldb + c)));
      }
      Abi::storeu(bm + c, Abi::div(acc, Abi::broadcast(diag)));
    }
    for (int c = nv; c < ncols; ++c) {
      double acc = bm[c];
      for (int cl = ml + 1; cl < w; ++cl)
        acc = Abi::sub1(
            acc, Abi::mul1(a[static_cast<std::ptrdiff_t>(cl) * lda + ml],
                           b[static_cast<std::ptrdiff_t>(cl) * ldb + c]));
      bm[c] = Abi::div1(acc, diag);
    }
  }
}

}  // namespace sstar::blas::kernels
