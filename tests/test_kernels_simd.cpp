// SIMD kernel backend conformance and determinism (DESIGN.md §12).
//
// Every backend this build carries AND this host supports is driven
// directly through its dispatch table (blas::kernel_ops_for) and
// checked against the scalar reference oracle:
//  - a shape fuzzer over degenerate (0/1), odd, register-boundary and
//    blocking-boundary sizes, ragged leading dimensions and alpha/beta
//    edge values, with componentwise rounding-aware error bounds;
//  - reference-BLAS beta == 0 semantics (output WRITTEN, never read —
//    NaN in uninitialized memory must not propagate) and alpha == 0
//    early-exit semantics (NaN in the inputs must not propagate);
//  - padding rows beyond m (ld > m) must never be touched;
//  - per-backend bitwise determinism: with a FIXED backend selected via
//    blas::set_kernel_backend, the sequential driver, the shared-memory
//    executor at {1, 2, 4, 8} threads and the message-passing runtime
//    at {1, 2, 4, 8} ranks produce bitwise-identical factors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "blas/kernel_backend.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "exec/lu_real.hpp"
#include "ordering/transversal.hpp"
#include "solve/solver.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace sstar {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

using testing::BackendGuard;

std::vector<blas::KernelBackend> simd_backends() {
  std::vector<blas::KernelBackend> out;
  for (const blas::KernelBackend b : blas::supported_kernel_backends())
    if (b != blas::KernelBackend::kScalar) out.push_back(b);
  return out;
}

std::vector<double> random_values(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

// ---------------------------------------------------------------------
// Backend registry / selection unit tests
// ---------------------------------------------------------------------

TEST(KernelBackend, NamesRoundTrip) {
  using blas::KernelBackend;
  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kAvx2, KernelBackend::kAvx512,
        KernelBackend::kNeon}) {
    const auto parsed = blas::parse_kernel_backend(blas::kernel_backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(blas::parse_kernel_backend("sse9").has_value());
  EXPECT_FALSE(blas::parse_kernel_backend("").has_value());
}

TEST(KernelBackend, SupportedSetIsConsistent) {
  const auto supported = blas::supported_kernel_backends();
  ASSERT_FALSE(supported.empty());
  // Scalar is always available and always first.
  EXPECT_EQ(supported.front(), blas::KernelBackend::kScalar);
  EXPECT_TRUE(blas::kernel_backend_supported(blas::KernelBackend::kScalar));
  // best_kernel_backend() is one of the supported ones.
  EXPECT_NE(std::find(supported.begin(), supported.end(),
                      blas::best_kernel_backend()),
            supported.end());
  // ops tables exist exactly for the supported set.
  using blas::KernelBackend;
  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kAvx2, KernelBackend::kAvx512,
        KernelBackend::kNeon}) {
    EXPECT_EQ(blas::kernel_ops_for(b) != nullptr,
              blas::kernel_backend_supported(b))
        << blas::kernel_backend_name(b);
  }
  // The summary names the active backend.
  EXPECT_NE(blas::kernel_backend_summary().find(blas::kernel_backend_name(
                blas::active_kernel_backend())),
            std::string::npos);
}

TEST(KernelBackend, SetRejectsUnsupportedAndKeepsSelection) {
  BackendGuard guard;
  const blas::KernelBackend before = blas::active_kernel_backend();
  using blas::KernelBackend;
  for (const KernelBackend b :
       {KernelBackend::kAvx2, KernelBackend::kAvx512, KernelBackend::kNeon}) {
    if (blas::kernel_backend_supported(b)) continue;
    EXPECT_FALSE(blas::set_kernel_backend(b));
    EXPECT_EQ(blas::active_kernel_backend(), before);
  }
  // Selecting every supported backend succeeds and sticks.
  for (const blas::KernelBackend b : blas::supported_kernel_backends()) {
    EXPECT_TRUE(blas::set_kernel_backend(b));
    EXPECT_EQ(blas::active_kernel_backend(), b);
  }
}

// ---------------------------------------------------------------------
// Conformance fuzzer vs the scalar oracle
// ---------------------------------------------------------------------

// Shapes cover: empty (0), single (1), below/at/above the widest vector
// width (8) and the microkernel register tiles (6, 8, 16), and the
// cache-blocking boundaries KC = 256 / MC = 192 via 200-ish and
// just-past-one-panel values.
const int kDims[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 33, 48};
const int kDimsK[] = {0, 1, 2, 7, 8, 31, 64, 200, 300};
const double kAlphas[] = {0.0, 1.0, -1.0, 0.75};
const double kBetas[] = {0.0, 1.0, -1.0, 0.5};

TEST(KernelSimd, DgemmConformance) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const blas::KernelOps& oracle =
      *blas::kernel_ops_for(blas::KernelBackend::kScalar);
  Rng rng(2024);
  int cases = 0;
  for (const int m : kDims) {
    for (const int n : kDims) {
      for (const int k : kDimsK) {
        // Keep the grid affordable: subsample the large-k corner.
        if (k >= 64 && (m < 8 || n < 8)) continue;
        const int lda = m + (m % 3);  // ragged: lda > m for most m
        const int ldb = k + 1;
        const int ldc = m + 2;
        const auto a = random_values(static_cast<std::size_t>(lda) *
                                         std::max(k, 1) + 1, rng);
        const auto b = random_values(static_cast<std::size_t>(ldb) *
                                         std::max(n, 1) + 1, rng);
        const auto c0 = random_values(static_cast<std::size_t>(ldc) *
                                          std::max(n, 1) + 1, rng);
        const double alpha = kAlphas[cases % 4];
        const double beta = kBetas[(cases / 4) % 4];
        ++cases;

        auto ref = c0;
        oracle.dgemm(m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
                     ref.data(), ldc);
        for (const blas::KernelBackend kb : backends) {
          auto got = c0;
          blas::kernel_ops_for(kb)->dgemm(m, n, k, alpha, a.data(), lda,
                                          b.data(), ldb, beta, got.data(),
                                          ldc);
          for (int j = 0; j < n; ++j) {
            for (int i = 0; i < m; ++i) {
              const std::size_t at =
                  static_cast<std::size_t>(j) * ldc + i;
              // Rounding-aware componentwise bound: both results are
              // reassociations of the same k-term sum, so they agree to
              // O(k) rounding errors of the ABSOLUTE accumulation.
              double abs_acc = std::fabs(beta * c0[at]);
              for (int p = 0; p < k; ++p)
                abs_acc += std::fabs(alpha) *
                           std::fabs(a[static_cast<std::size_t>(p) * lda + i]) *
                           std::fabs(b[static_cast<std::size_t>(j) * ldb + p]);
              const double tol = 8.0 * (k + 2) * kEps * abs_acc + 1e-300;
              ASSERT_NEAR(got[at], ref[at], tol)
                  << blas::kernel_backend_name(kb) << " m=" << m << " n=" << n
                  << " k=" << k << " alpha=" << alpha << " beta=" << beta
                  << " (i,j)=(" << i << "," << j << ")";
            }
          }
          // Padding rows between m and ldc must never be touched.
          for (int j = 0; j < n; ++j)
            for (int i = m; i < ldc; ++i) {
              const std::size_t at = static_cast<std::size_t>(j) * ldc + i;
              ASSERT_EQ(got[at], c0[at])
                  << blas::kernel_backend_name(kb) << " wrote past m; m=" << m
                  << " ldc=" << ldc;
            }
        }
      }
    }
  }
}

TEST(KernelSimd, DgemvConformance) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const blas::KernelOps& oracle =
      *blas::kernel_ops_for(blas::KernelBackend::kScalar);
  Rng rng(7);
  for (const int m : kDims) {
    for (const int n : kDims) {
      for (const double alpha : kAlphas) {
        for (const double beta : kBetas) {
          const int lda = m + 3;
          const auto a = random_values(
              static_cast<std::size_t>(lda) * std::max(n, 1) + 1, rng);
          const auto x = random_values(static_cast<std::size_t>(
                                           std::max(n, 1)),
                                       rng);
          const auto y0 = random_values(static_cast<std::size_t>(
                                            std::max(m, 1)),
                                        rng);
          auto ref = y0;
          oracle.dgemv(m, n, alpha, a.data(), lda, x.data(), beta,
                       ref.data());
          for (const blas::KernelBackend kb : backends) {
            auto got = y0;
            blas::kernel_ops_for(kb)->dgemv(m, n, alpha, a.data(), lda,
                                            x.data(), beta, got.data());
            for (int i = 0; i < m; ++i) {
              double abs_acc = std::fabs(beta * y0[static_cast<std::size_t>(i)]);
              for (int j = 0; j < n; ++j)
                abs_acc += std::fabs(alpha) *
                           std::fabs(a[static_cast<std::size_t>(j) * lda + i]) *
                           std::fabs(x[static_cast<std::size_t>(j)]);
              const double tol = 8.0 * (n + 2) * kEps * abs_acc + 1e-300;
              ASSERT_NEAR(got[static_cast<std::size_t>(i)],
                          ref[static_cast<std::size_t>(i)], tol)
                  << blas::kernel_backend_name(kb) << " m=" << m << " n=" << n
                  << " alpha=" << alpha << " beta=" << beta << " i=" << i;
            }
          }
        }
      }
    }
  }
}

TEST(KernelSimd, DgerConformance) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const blas::KernelOps& oracle =
      *blas::kernel_ops_for(blas::KernelBackend::kScalar);
  Rng rng(91);
  for (const int m : kDims) {
    for (const int n : kDims) {
      for (const double alpha : kAlphas) {
        for (const int incx : {1, 2}) {
          const int lda = m + 1;
          const auto a0 = random_values(
              static_cast<std::size_t>(lda) * std::max(n, 1) + 1, rng);
          const auto x = random_values(
              static_cast<std::size_t>(std::max(m, 1)) * incx, rng);
          const auto y = random_values(static_cast<std::size_t>(
                                           std::max(n, 1)) * 3,
                                       rng);
          const int incy = 3;
          auto ref = a0;
          oracle.dger(m, n, alpha, x.data(), y.data(), ref.data(), lda, incx,
                      incy);
          for (const blas::KernelBackend kb : backends) {
            auto got = a0;
            blas::kernel_ops_for(kb)->dger(m, n, alpha, x.data(), y.data(),
                                           got.data(), lda, incx, incy);
            for (int j = 0; j < n; ++j)
              for (int i = 0; i < m; ++i) {
                const std::size_t at = static_cast<std::size_t>(j) * lda + i;
                // One fused vs one rounded multiply-add of difference.
                const double term =
                    std::fabs(alpha * x[static_cast<std::size_t>(i) * incx] *
                              y[static_cast<std::size_t>(j) * incy]);
                const double tol =
                    4.0 * kEps * (std::fabs(a0[at]) + term) + 1e-300;
                ASSERT_NEAR(got[at], ref[at], tol)
                    << blas::kernel_backend_name(kb) << " m=" << m
                    << " n=" << n << " alpha=" << alpha << " incx=" << incx;
              }
          }
        }
      }
    }
  }
}

// Well-conditioned unit-lower / upper triangles: substitution
// reassociation differences stay near machine epsilon.
TEST(KernelSimd, TrsmConformance) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const blas::KernelOps& oracle =
      *blas::kernel_ops_for(blas::KernelBackend::kScalar);
  Rng rng(5);
  for (const int n : {0, 1, 2, 3, 5, 8, 13, 17, 32, 47}) {
    for (const int m : {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 23}) {
      const int lda = n + 2;
      const int ldb = n + 3;
      std::vector<double> tri(static_cast<std::size_t>(lda) *
                                  std::max(n, 1) + 1,
                              0.0);
      const double off = n > 0 ? 0.4 / n : 0.0;
      for (int j = 0; j < n; ++j) {
        for (int i = 0; i < n; ++i)
          tri[static_cast<std::size_t>(j) * lda + i] =
              rng.uniform(-off, off);
        tri[static_cast<std::size_t>(j) * lda + j] =
            rng.bernoulli(0.5) ? 1.5 : -1.25;  // used by dtrsm_upper only
      }
      const auto b0 = random_values(
          static_cast<std::size_t>(ldb) * std::max(m, 1) + 1, rng);
      for (const bool lower : {true, false}) {
        auto ref = b0;
        if (lower)
          oracle.dtrsm_lower_unit(n, m, tri.data(), lda, ref.data(), ldb);
        else
          oracle.dtrsm_upper(n, m, tri.data(), lda, ref.data(), ldb);
        for (const blas::KernelBackend kb : backends) {
          auto got = b0;
          if (lower)
            blas::kernel_ops_for(kb)->dtrsm_lower_unit(n, m, tri.data(), lda,
                                                       got.data(), ldb);
          else
            blas::kernel_ops_for(kb)->dtrsm_upper(n, m, tri.data(), lda,
                                                  got.data(), ldb);
          for (int j = 0; j < m; ++j)
            for (int i = 0; i < n; ++i) {
              const std::size_t at = static_cast<std::size_t>(j) * ldb + i;
              const double tol =
                  64.0 * (n + 2) * kEps *
                      std::max(1.0, std::fabs(ref[at])) +
                  1e-300;
              ASSERT_NEAR(got[at], ref[at], tol)
                  << blas::kernel_backend_name(kb)
                  << (lower ? " lower" : " upper") << " n=" << n
                  << " m=" << m << " (i,j)=(" << i << "," << j << ")";
            }
          // Rows past n (ldb padding) untouched.
          for (int j = 0; j < m; ++j)
            for (int i = n; i < ldb; ++i) {
              const std::size_t at = static_cast<std::size_t>(j) * ldb + i;
              ASSERT_EQ(got[at], b0[at]);
            }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// beta == 0 / alpha == 0 NaN containment (reference-BLAS semantics)
// ---------------------------------------------------------------------

TEST(KernelSimd, BetaZeroNeverReadsOutput) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(17);
  for (const blas::KernelBackend kb : blas::supported_kernel_backends()) {
    const blas::KernelOps& ops = *blas::kernel_ops_for(kb);
    for (const int m : {1, 3, 8, 17}) {
      for (const int n : {1, 2, 7, 16}) {
        const int k = 5;
        const auto a = random_values(static_cast<std::size_t>(m) * k, rng);
        const auto b = random_values(static_cast<std::size_t>(k) * n, rng);
        // C starts as all-NaN: with beta == 0 the result must still be
        // finite — assignment semantics, the old C is never read.
        std::vector<double> c(static_cast<std::size_t>(m) * n, qnan);
        ops.dgemm(m, n, k, 1.0, a.data(), m, b.data(), k, 0.0, c.data(), m);
        for (const double v : c)
          ASSERT_TRUE(std::isfinite(v))
              << blas::kernel_backend_name(kb) << " dgemm beta=0 read C";

        std::vector<double> y(static_cast<std::size_t>(m), qnan);
        const auto x = random_values(static_cast<std::size_t>(n), rng);
        const auto a2 =
            random_values(static_cast<std::size_t>(m) * n, rng);
        ops.dgemv(m, n, 1.0, a2.data(), m, x.data(), 0.0, y.data());
        for (const double v : y)
          ASSERT_TRUE(std::isfinite(v))
              << blas::kernel_backend_name(kb) << " dgemv beta=0 read y";

        // alpha == 0 with k-dimension data full of NaN: nothing may
        // propagate (0 * NaN = NaN if actually multiplied).
        std::vector<double> anan(static_cast<std::size_t>(m) * k, qnan);
        std::vector<double> c2(static_cast<std::size_t>(m) * n, 3.5);
        ops.dgemm(m, n, k, 0.0, anan.data(), m, b.data(), k, 1.0, c2.data(),
                  m);
        for (const double v : c2)
          ASSERT_EQ(v, 3.5)
              << blas::kernel_backend_name(kb) << " dgemm alpha=0 multiplied";

        std::vector<double> xnan(static_cast<std::size_t>(n), qnan);
        std::vector<double> y2(static_cast<std::size_t>(m), 1.25);
        ops.dgemv(m, n, 0.0, a2.data(), m, xnan.data(), 1.0, y2.data());
        for (const double v : y2)
          ASSERT_EQ(v, 1.25)
              << blas::kernel_backend_name(kb) << " dgemv alpha=0 multiplied";

        std::vector<double> g(static_cast<std::size_t>(m) * n, 2.0);
        ops.dger(m, n, 0.0, xnan.data(), xnan.data(), g.data(), m, 1, 1);
        for (const double v : g)
          ASSERT_EQ(v, 2.0)
              << blas::kernel_backend_name(kb) << " dger alpha=0 multiplied";
      }
    }
  }
}

// Empty shapes must be complete no-ops on every backend.
TEST(KernelSimd, EmptyShapesAreNoOps) {
  for (const blas::KernelBackend kb : blas::supported_kernel_backends()) {
    const blas::KernelOps& ops = *blas::kernel_ops_for(kb);
    std::vector<double> c(4, 9.0);
    ops.dgemm(0, 2, 3, 1.0, nullptr, 1, nullptr, 3, 0.0, c.data(), 1);
    ops.dgemm(2, 0, 3, 1.0, nullptr, 2, nullptr, 3, 0.0, c.data(), 2);
    ops.dgemv(0, 0, 1.0, nullptr, 1, nullptr, 0.0, c.data());
    ops.dger(0, 2, 1.0, nullptr, c.data(), c.data(), 1, 1, 1);
    ops.dtrsm_lower_unit(0, 2, nullptr, 1, c.data(), 1);
    ops.dtrsm_upper(0, 2, nullptr, 1, c.data(), 1);
    // k == 0, beta == 0: C must be zeroed (assignment), not left alone.
    ops.dgemm(2, 2, 0, 1.0, nullptr, 2, nullptr, 1, 0.0, c.data(), 2);
    for (const double v : c)
      ASSERT_EQ(v, 0.0) << blas::kernel_backend_name(kb);
  }
}

// Update(k, j) makes ONE dgemm over a supernode's whole L panel and reads
// each L block's rows out of it, so it gives every L block the bits of a
// dgemm over that block alone only if no row's result depends on the
// other rows of the call. Pin that: at alpha = 1, beta = 0, rows
// [r0, r0 + m) of a stacked product equal, bit for bit, the product of
// those m rows alone, on every backend, for random row splits and for a
// k that crosses the KC = 256 tile.
TEST(KernelSimd, StackedRowsMatchPerBlockGemm) {
  struct Shape {
    int m_total, n, k;
  };
  Rng rng(4242);
  std::vector<Shape> shapes;
  for (int s = 0; s < 24; ++s)
    shapes.push_back({rng.uniform_int(1, 700), rng.uniform_int(1, 25),
                      rng.uniform_int(1, 25)});
  shapes.push_back({700, 25, 25});
  shapes.push_back({333, 7, 300});
  for (const blas::KernelBackend kb : blas::supported_kernel_backends()) {
    const blas::KernelOps& ops = *blas::kernel_ops_for(kb);
    for (const Shape& sh : shapes) {
      const int lda = sh.m_total + 3;
      const int ldb = sh.k + 1;
      const auto a = random_values(static_cast<std::size_t>(lda) * sh.k, rng);
      const auto b = random_values(static_cast<std::size_t>(ldb) * sh.n, rng);
      std::vector<double> stacked(static_cast<std::size_t>(sh.m_total) * sh.n);
      ops.dgemm(sh.m_total, sh.n, sh.k, 1.0, a.data(), lda, b.data(), ldb,
                0.0, stacked.data(), sh.m_total);
      // Mostly L-block-sized pieces, some past a register strip or MC.
      for (int r0 = 0; r0 < sh.m_total;) {
        const int want = rng.bernoulli(0.8) ? rng.uniform_int(1, 32)
                                            : rng.uniform_int(33, 260);
        const int m = std::min(want, sh.m_total - r0);
        std::vector<double> block(static_cast<std::size_t>(m) * sh.n);
        ops.dgemm(m, sh.n, sh.k, 1.0, a.data() + r0, lda, b.data(), ldb, 0.0,
                  block.data(), m);
        for (int j = 0; j < sh.n; ++j)
          ASSERT_EQ(std::memcmp(stacked.data() +
                                    static_cast<std::size_t>(j) * sh.m_total +
                                    r0,
                                block.data() + static_cast<std::size_t>(j) * m,
                                sizeof(double) * static_cast<std::size_t>(m)),
                    0)
              << blas::kernel_backend_name(kb) << " m_total=" << sh.m_total
              << " n=" << sh.n << " k=" << sh.k << " rows [" << r0 << ", "
              << r0 + m << ") column " << j;
        r0 += m;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Per-backend bitwise determinism across executors
// ---------------------------------------------------------------------

struct DetFixture {
  SparseMatrix a;
  StaticStructure s;
  std::unique_ptr<BlockLayout> layout;

  static DetFixture make(int n, int extra, std::uint64_t seed, int mb,
                         int r) {
    DetFixture f;
    f.a = make_zero_free_diagonal(testing::random_sparse(n, extra, seed));
    f.s = static_symbolic_factorization(f.a);
    auto part = amalgamate(f.s, find_supernodes(f.s, mb), r, mb);
    f.layout = std::make_unique<BlockLayout>(f.s, std::move(part));
    return f;
  }
};

TEST(KernelDeterminism, BitwiseIdenticalAcrossExecutorsPerBackend) {
  BackendGuard guard;
  const auto f = DetFixture::make(130, 5, 29, 10, 4);
  for (const blas::KernelBackend kb : blas::supported_kernel_backends()) {
    ASSERT_TRUE(blas::set_kernel_backend(kb));
    SStarNumeric ref(*f.layout);
    ref.assemble(f.a);
    ref.factorize();
    // Shared-memory executor at every thread count.
    for (const int threads : {1, 2, 4, 8}) {
      SStarNumeric par(*f.layout);
      par.assemble(f.a);
      exec::factorize_parallel(par, threads);
      EXPECT_TRUE(exec::factors_bitwise_equal(ref, par))
          << blas::kernel_backend_name(kb) << " threads=" << threads;
      EXPECT_EQ(par.pivot_of_col(), ref.pivot_of_col());
    }
    // Message-passing runtime at every rank count, 1D and 2D.
    for (const int ranks : {1, 2, 4, 8}) {
      const sim::MachineModel m = sim::MachineModel::cray_t3e(ranks);
      SStarNumeric mp(*f.layout);
      run_1d_mp(*f.layout, m, Schedule1DKind::kGraph, f.a, mp);
      EXPECT_TRUE(exec::factors_bitwise_equal(ref, mp))
          << blas::kernel_backend_name(kb) << " 1D ranks=" << ranks;
    }
    for (const int ranks : {2, 4}) {
      const sim::MachineModel m = sim::MachineModel::cray_t3e(ranks);
      SStarNumeric mp(*f.layout);
      run_2d_mp(*f.layout, m, /*async=*/true, f.a, mp);
      EXPECT_TRUE(exec::factors_bitwise_equal(ref, mp))
          << blas::kernel_backend_name(kb) << " 2D ranks=" << ranks;
    }
  }
}

// Same backend, repeated sequential runs: bitwise-stable (no hidden
// state in the dispatch layer or the packing buffers).
TEST(KernelDeterminism, RepeatedRunsIdenticalPerBackend) {
  BackendGuard guard;
  const auto f = DetFixture::make(90, 4, 53, 8, 4);
  for (const blas::KernelBackend kb : blas::supported_kernel_backends()) {
    ASSERT_TRUE(blas::set_kernel_backend(kb));
    std::unique_ptr<SStarNumeric> first;
    for (int rep = 0; rep < 2; ++rep) {
      auto num = std::make_unique<SStarNumeric>(*f.layout);
      num->assemble(f.a);
      num->factorize();
      if (!first) {
        first = std::move(num);
        continue;
      }
      EXPECT_TRUE(exec::factors_bitwise_equal(*first, *num))
          << blas::kernel_backend_name(kb) << " rep " << rep;
    }
  }
}

// Different backends on the same problem agree to rounding: the factors
// differ only by accumulation order, so the solve residual stays at
// machine-precision scale for every backend.
TEST(KernelDeterminism, CrossBackendResidualsAllSmall) {
  BackendGuard guard;
  const auto a = make_zero_free_diagonal(testing::random_sparse(120, 5, 3));
  const auto want = testing::random_vector(120, 8);
  const auto b = a.multiply(want);
  for (const blas::KernelBackend kb : blas::supported_kernel_backends()) {
    ASSERT_TRUE(blas::set_kernel_backend(kb));
    Solver solver(a);
    solver.factorize();
    const auto x = solver.solve(b);
    EXPECT_LT(testing::solve_residual(a, x, b), 1e-13)
        << blas::kernel_backend_name(kb);
  }
}

// The arena alignment contract the SIMD kernels rely on.
TEST(KernelSimd, ArenaAllocatorAligns) {
  for (const std::size_t n : {1u, 3u, 17u, 1000u}) {
    AlignedDoubles v(n, 0.0);
    EXPECT_TRUE(is_arena_aligned(v.data())) << n;
  }
}

}  // namespace
}  // namespace sstar
