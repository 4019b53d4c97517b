// Tests for the extension features: nested dissection ordering,
// equilibration, and the blocked multi-RHS solve.
#include <gtest/gtest.h>

#include <cmath>

#include "matrix/pattern_ops.hpp"
#include "ordering/nested_dissection.hpp"
#include "ordering/rcm.hpp"
#include "solve/solver.hpp"
#include "symbolic/cholesky_symbolic.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sstar {
namespace {

SparseMatrix grid_matrix(int nx, int ny) {
  std::vector<Triplet> t;
  auto idx = [&](int x, int y) { return x + nx * y; };
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x) {
      t.push_back({idx(x, y), idx(x, y), 4.0});
      if (x + 1 < nx) {
        t.push_back({idx(x + 1, y), idx(x, y), -1.0});
        t.push_back({idx(x, y), idx(x + 1, y), -1.0});
      }
      if (y + 1 < ny) {
        t.push_back({idx(x, y + 1), idx(x, y), -1.0});
        t.push_back({idx(x, y), idx(x, y + 1), -1.0});
      }
    }
  return SparseMatrix::from_triplets(nx * ny, nx * ny, std::move(t));
}

TEST(NestedDissection, PermutationOnVariousGraphs) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto a = testing::random_sparse(70, 3, 100 + seed);
    const auto perm = nested_dissection_order(ata_pattern(a));
    EXPECT_TRUE(is_permutation(perm)) << "seed " << seed;
  }
  // Degenerate graphs.
  EXPECT_TRUE(is_permutation(
      nested_dissection_order(pattern_of(SparseMatrix::identity(20)))));
  EXPECT_TRUE(
      nested_dissection_order(pattern_of(SparseMatrix::identity(0))).empty());
}

TEST(NestedDissection, SeparatorsLastWithinTopSplit) {
  // On a path graph the top-level separator must be ordered after both
  // halves (the defining property of dissection order).
  const int n = 400;
  std::vector<Triplet> t;
  for (int i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i + 1 < n) {
      t.push_back({i + 1, i, -1.0});
      t.push_back({i, i + 1, -1.0});
    }
  }
  const auto a = SparseMatrix::from_triplets(n, n, std::move(t));
  NestedDissectionOptions opt;
  opt.leaf_size = 16;
  const auto perm = nested_dissection_order(pattern_of(a), opt);
  ASSERT_TRUE(is_permutation(perm));
  // The LAST ordered vertex must be a separator vertex of some level —
  // for a path, an interior vertex, not an endpoint.
  EXPECT_NE(perm.back(), 0);
  EXPECT_NE(perm.back(), n - 1);
}

TEST(NestedDissection, CompetitiveFillOnGrid) {
  // ND should beat the natural order on a grid and be within a modest
  // factor of minimum degree.
  const auto a = grid_matrix(18, 18);
  const auto natural = cholesky_ata_bound(a);
  const auto nd_perm = nested_dissection_order(ata_pattern(a));
  const auto nd = cholesky_ata_bound(a.permuted(nd_perm, nd_perm));
  EXPECT_LT(nd.factor_nnz, natural.factor_nnz);

  SolverOptions md_opt;
  const auto md = prepare(a, md_opt);
  SolverOptions nd_opt;
  nd_opt.ordering = SolverOptions::Ordering::kNestedDissection;
  const auto nds = prepare(a, nd_opt);
  EXPECT_LT(static_cast<double>(nds.structure.factor_entries()),
            2.0 * static_cast<double>(md.structure.factor_entries()));
}

TEST(NestedDissection, SolvesThroughTheSolver) {
  const auto a = testing::random_sparse(80, 4, 11);
  SolverOptions opt;
  opt.ordering = SolverOptions::Ordering::kNestedDissection;
  Solver solver(a, opt);
  solver.factorize();
  const auto want = testing::random_vector(80, 3);
  EXPECT_LT(testing::max_abs_diff(solver.solve(a.multiply(want)), want),
            1e-7);
}

TEST(Equilibrate, ScalesRecordedAndSolvesExactly) {
  // Badly scaled matrix: rows span 12 orders of magnitude.
  const int n = 50;
  auto base = testing::random_sparse(n, 4, 21, 0.0);
  std::vector<Triplet> t;
  Rng rng(3);
  for (int j = 0; j < n; ++j)
    for (int k = base.col_begin(j); k < base.col_end(j); ++k) {
      const int i = base.row_idx()[k];
      t.push_back({i, j, base.values()[k] *
                             std::pow(10.0, (i % 13) - 6.0)});
    }
  const auto a = SparseMatrix::from_triplets(n, n, std::move(t));

  SolverOptions opt;
  opt.equilibrate = true;
  Solver solver(a, opt);
  solver.factorize();
  ASSERT_FALSE(solver.setup().row_scale.empty());
  // The scaled matrix must have unit-magnitude column maxima.
  const auto& sc = solver.setup().permuted;
  for (int j = 0; j < n; ++j) {
    double cmax = 0.0;
    for (int k = sc.col_begin(j); k < sc.col_end(j); ++k)
      cmax = std::max(cmax, std::fabs(sc.values()[k]));
    EXPECT_NEAR(cmax, 1.0, 1e-12) << "column " << j;
  }

  const auto want = testing::random_vector(n, 17);
  const auto b = a.multiply(want);
  EXPECT_LT(testing::max_abs_diff(solver.solve(b), want), 1e-6);
  // Transpose solve under equilibration.
  const auto bt = a.transpose().multiply(want);
  // 12 orders of magnitude of row scaling caps the achievable forward
  // accuracy even after equilibration.
  EXPECT_LT(testing::max_abs_diff(solver.solve_transpose(bt), want), 1e-4);
}

TEST(Equilibrate, OffByDefaultAndHarmlessWhenBalanced) {
  const auto a = testing::random_sparse(40, 3, 9, 0.0);
  Solver plain(a);
  EXPECT_TRUE(plain.setup().row_scale.empty());
  SolverOptions opt;
  opt.equilibrate = true;
  Solver eq(a, opt);
  plain.factorize();
  eq.factorize();
  const auto b = testing::random_vector(40, 2);
  EXPECT_LT(testing::max_abs_diff(plain.solve(b), eq.solve(b)), 1e-9);
}

TEST(SolveMulti, MatchesColumnwiseSolves) {
  const auto a = testing::random_sparse(70, 4, 31);
  Solver solver(a);
  solver.factorize();
  const int nrhs = 7;
  std::vector<double> b(static_cast<std::size_t>(70) * nrhs);
  Rng rng(5);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const auto x = solver.solve_multi(b, nrhs);
  for (int r = 0; r < nrhs; ++r) {
    const std::vector<double> br(b.begin() + r * 70,
                                 b.begin() + (r + 1) * 70);
    const auto xr = solver.solve(br);
    for (int i = 0; i < 70; ++i) EXPECT_EQ(x[r * 70 + i], xr[i]) << "rhs " << r;
  }
}

TEST(SolveMulti, HandlesPivotingAndZeroRhs) {
  const auto a = testing::random_sparse(60, 4, 13, /*weak=*/0.4);
  SolverOptions opt;
  opt.max_block = 10;
  Solver solver(a, opt);
  solver.factorize();
  ASSERT_GT(solver.stats().off_diagonal_pivots, 0);
  EXPECT_TRUE(solver.solve_multi({}, 0).empty());
  const int nrhs = 3;
  std::vector<double> want(static_cast<std::size_t>(60) * nrhs);
  Rng rng(8);
  for (auto& v : want) v = rng.uniform(-2.0, 2.0);
  std::vector<double> b(want.size());
  for (int r = 0; r < nrhs; ++r) {
    const std::vector<double> wr(want.begin() + r * 60,
                                 want.begin() + (r + 1) * 60);
    const auto br = a.multiply(wr);
    std::copy(br.begin(), br.end(), b.begin() + r * 60);
  }
  const auto x = solver.solve_multi(b, nrhs);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(x[i], want[i], 1e-5);
}

TEST(SolveMulti, EquilibrationComposes) {
  const auto a = testing::random_sparse(40, 3, 77, 0.0);
  SolverOptions opt;
  opt.equilibrate = true;
  Solver solver(a, opt);
  solver.factorize();
  std::vector<double> b(80);
  Rng rng(12);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const auto x = solver.solve_multi(b, 2);
  for (int r = 0; r < 2; ++r) {
    const std::vector<double> br(b.begin() + r * 40,
                                 b.begin() + (r + 1) * 40);
    const auto xr = solver.solve(br);
    for (int i = 0; i < 40; ++i) EXPECT_EQ(x[r * 40 + i], xr[i]);
  }
}

}  // namespace
}  // namespace sstar
