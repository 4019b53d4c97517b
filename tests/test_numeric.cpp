// Tests for the S* numeric factorization: PA = LU correctness against
// the dense oracle, solve accuracy, pivoting behaviour, and the
// BLAS-level split the paper's performance model depends on.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "baseline/dense_lu.hpp"
#include "core/numeric.hpp"
#include "ordering/transversal.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sstar {
namespace {

struct Pipeline {
  SparseMatrix a;
  StaticStructure s;
  std::unique_ptr<BlockLayout> layout;
  std::unique_ptr<SStarNumeric> num;
};

Pipeline run_pipeline(SparseMatrix a, int max_block, int amalg) {
  Pipeline p;
  p.a = make_zero_free_diagonal(a);
  p.s = static_symbolic_factorization(p.a);
  auto part = find_supernodes(p.s, max_block);
  part = amalgamate(p.s, part, amalg, max_block);
  p.layout = std::make_unique<BlockLayout>(p.s, std::move(part));
  p.num = std::make_unique<SStarNumeric>(*p.layout);
  p.num->assemble(p.a);
  p.num->factorize();
  return p;
}

struct Config {
  int n;
  int extra;
  int max_block;
  int amalg;
  std::uint64_t seed;
};

class NumericFactorization : public ::testing::TestWithParam<Config> {};

TEST_P(NumericFactorization, PaEqualsLuAndSolves) {
  const auto cfg = GetParam();
  auto p = run_pipeline(
      testing::random_sparse(cfg.n, cfg.extra, cfg.seed), cfg.max_block,
      cfg.amalg);

  // PA = LU residual via the reconstructed conventional triple.
  std::vector<int> perm;
  DenseMatrix l, u;
  p.num->reconstruct_pa_lu(&perm, &l, &u);
  EXPECT_LT(factorization_residual(p.a, perm, l, u), 1e-11)
      << "n=" << cfg.n << " mb=" << cfg.max_block << " r=" << cfg.amalg;

  // Solve check against a known solution.
  const auto want = testing::random_vector(cfg.n, cfg.seed ^ 0xf00d);
  const auto b = p.a.multiply(want);
  const auto got = p.num->solve(b);
  EXPECT_LT(testing::max_abs_diff(got, want), 1e-7);
  EXPECT_LT(testing::solve_residual(p.a, got, b), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, NumericFactorization,
    ::testing::Values(Config{8, 2, 3, 0, 1}, Config{25, 3, 4, 0, 2},
                      Config{25, 3, 4, 4, 3}, Config{60, 4, 8, 0, 4},
                      Config{60, 4, 8, 4, 5}, Config{60, 4, 25, 6, 6},
                      Config{120, 4, 25, 4, 7}, Config{120, 5, 12, 2, 8},
                      Config{40, 3, 1, 0, 9},   // width-1 blocks
                      Config{40, 3, 64, 8, 10}  // one giant block allowed
                      ));

TEST(Numeric, MatchesDenseOracleSolution) {
  // Same matrix, same right-hand side: S* and the dense oracle must
  // agree to high accuracy even though pivot sequences may differ.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto p = run_pipeline(testing::random_sparse(50, 4, 2000 + seed), 8, 4);
    const auto f = baseline::dense_lu_factor(p.a);
    const auto b = testing::random_vector(50, seed);
    const auto x1 = p.num->solve(b);
    const auto x2 = f.solve(b);
    EXPECT_LT(testing::max_abs_diff(x1, x2), 1e-6) << "seed " << seed;
  }
}

TEST(Numeric, PartialPivotingActuallyFires) {
  // Weak diagonals force off-diagonal pivots; the count must be > 0 and
  // every chosen pivot row must be a static candidate.
  auto p = run_pipeline(testing::random_sparse(80, 4, 77, 0.4), 8, 4);
  EXPECT_GT(p.num->stats().off_diagonal_pivots, 0);
  const auto& piv = p.num->pivot_of_col();
  for (int m = 0; m < 80; ++m) {
    const int t = piv[m];
    ASSERT_GE(t, m);
    if (t == m) continue;
    const int k = p.layout->block_of_column(m);
    // t is either in the diagonal block of k or among its panel rows.
    if (t < p.layout->start(k + 1)) continue;
    EXPECT_GE(p.layout->panel_row_index(k, t), 0)
        << "pivot row " << t << " for column " << m
        << " is not a structural candidate";
  }
}

TEST(Numeric, MultiplierMagnitudesBoundedByOne) {
  // Partial pivoting guarantees |L| <= 1.
  auto p = run_pipeline(testing::random_sparse(60, 4, 11, 0.3), 8, 4);
  DenseMatrix l, u;
  p.num->reconstruct_pa_lu(nullptr, &l, &u);
  for (int j = 0; j < 60; ++j)
    for (int i = j + 1; i < 60; ++i)
      EXPECT_LE(std::fabs(l(i, j)), 1.0 + 1e-12);
}

TEST(Numeric, SingularMatrixThrows) {
  // Column 2 linearly dependent on column 1 within a small matrix with
  // identical sparsity; engineered exact singularity.
  std::vector<Triplet> t = {{0, 0, 1.0}, {1, 1, 2.0}, {2, 1, 4.0},
                            {1, 2, 1.0}, {2, 2, 2.0}, {3, 3, 1.0}};
  auto a = SparseMatrix::from_triplets(4, 4, std::move(t));
  const auto s = static_symbolic_factorization(a);
  BlockLayout layout(s, find_supernodes(s, 4));
  SStarNumeric num(layout);
  num.assemble(a);
  EXPECT_THROW(num.factorize(), CheckError);
}

TEST(Numeric, NaNBelowDiagonalFailsAsNonFinitePivot) {
  // A NaN planted below the diagonal of column 0 of a directly assembled
  // numeric (prepare()'s input check never sees it) must fail Factor(0)
  // as a non-finite pivot at column 0, whether it sits in the diagonal
  // block (max_block 3) or in the first or a later L panel slot
  // (max_block 1).
  std::vector<Triplet> t;
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 3; ++i) t.push_back({i, j, i == j ? 4.0 : 1.0});
  const auto a = SparseMatrix::from_triplets(3, 3, std::move(t));
  const auto s = static_symbolic_factorization(a);
  for (const int max_block : {1, 3}) {
    BlockLayout layout(s, find_supernodes(s, max_block));
    for (const int row : {1, 2}) {
      SStarNumeric num(layout);
      num.assemble(a);
      double* cell = num.data().entry_ptr(row, 0);
      ASSERT_NE(cell, nullptr);
      *cell = std::nan("");
      try {
        num.factorize();
        FAIL() << "NaN pivot accepted; max_block " << max_block << " row "
               << row;
      } catch (const CheckError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("non-finite pivot"), std::string::npos) << what;
        EXPECT_NE(what.find("at column 0"), std::string::npos) << what;
      }
    }
  }
}

TEST(Numeric, DiagonallyDominantNeedsNoPivoting) {
  // Column-dominant by construction: |diag| = 50 dwarfs every
  // off-diagonal (|v| <= 1), so GEPP never leaves the diagonal.
  const int n = 50;
  Rng rng(21);
  std::vector<Triplet> t;
  for (int j = 0; j < n; ++j) {
    t.push_back({j, j, 50.0});
    for (int e = 0; e < 3; ++e) {
      const int i = rng.uniform_int(0, n - 1);
      if (i != j) t.push_back({i, j, rng.uniform(-1.0, 1.0)});
    }
  }
  auto p = run_pipeline(SparseMatrix::from_triplets(n, n, std::move(t)), 8,
                        4);
  EXPECT_EQ(p.num->stats().off_diagonal_pivots, 0);
  for (int m = 0; m < 50; ++m) EXPECT_EQ(p.num->pivot_of_col()[m], m);
}

TEST(Numeric, Blas3DominatesOnDenseProblem) {
  // On a dense matrix with real supernodes, most update flops must go
  // through DGEMM — the S* design premise (§6.1 measures r ~ 0.75).
  const int n = 96;
  std::vector<Triplet> t;
  Rng rng(5);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      t.push_back({i, j, rng.uniform(0.5, 1.5) + (i == j ? n : 0.0)});
  auto p = run_pipeline(SparseMatrix::from_triplets(n, n, std::move(t)), 16,
                        0);
  EXPECT_GT(p.num->stats().blas3_fraction(), 0.5);
}

TEST(Numeric, ScaleSwapBeforeFactorIsRejected) {
  auto a = make_zero_free_diagonal(testing::random_sparse(20, 3, 31));
  const auto s = static_symbolic_factorization(a);
  BlockLayout layout(s, find_supernodes(s, 5));
  SStarNumeric num(layout);
  num.assemble(a);
  if (!layout.u_blocks(0).empty()) {
    EXPECT_THROW(num.scale_swap(0, layout.u_blocks(0)[0].block), CheckError);
  }
}

TEST(Numeric, ReassembleAllowsRefactorization) {
  // Factor, reassemble with new values on the same structure, factor
  // again: both solves must be accurate (structure reuse is the point of
  // the static approach).
  auto a = make_zero_free_diagonal(testing::random_sparse(40, 3, 1));
  const auto s = static_symbolic_factorization(a);
  BlockLayout layout(s, amalgamate(s, find_supernodes(s, 8), 4, 8));
  SStarNumeric num(layout);

  for (int round = 0; round < 2; ++round) {
    auto b = a;
    Rng rng(900 + round);
    for (auto& v : b.values())
      v = rng.uniform(0.5, 2.0) * (rng.bernoulli(0.5) ? 1 : -1);
    // Re-strengthen the diagonal to keep it comfortably nonsingular.
    for (int j = 0; j < 40; ++j) {
      double* dv = nullptr;
      for (int k = b.col_begin(j); k < b.col_end(j); ++k)
        if (b.row_idx()[k] == j) dv = &b.values()[k];
      ASSERT_NE(dv, nullptr);
      *dv = 10.0 + rng.uniform();
    }
    num.assemble(b);
    num.factorize();
    const auto want = testing::random_vector(40, 7u * round + 3u);
    const auto got = num.solve(b.multiply(want));
    EXPECT_LT(testing::max_abs_diff(got, want), 1e-8) << "round " << round;
  }
}

TEST(Numeric, PaperFig4MatrixEndToEnd) {
  auto p = run_pipeline(testing::paper_fig4_matrix(), 25, 0);
  const auto want = testing::random_vector(7, 99);
  const auto got = p.num->solve(p.a.multiply(want));
  EXPECT_LT(testing::max_abs_diff(got, want), 1e-10);
}

}  // namespace
}  // namespace sstar
