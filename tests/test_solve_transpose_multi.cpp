// Batched transpose panel solves (DESIGN.md §14 extension): the
// Aᵀ X = B sweep runs through the same multi-RHS rhs_* kernels as the
// forward path, and every result column is BITWISE-identical to the
// single-RHS solve_transpose on that column — the property the 1-norm
// condition estimator (and any adjoint workload) rides on.
#include <gtest/gtest.h>

#include "core/numeric.hpp"
#include "ordering/transversal.hpp"
#include "solve/condest.hpp"
#include "solve/solver.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace sstar {
namespace {

TEST(SolveTransposeMulti, NumericBitwiseVsSolo) {
  const auto a =
      make_zero_free_diagonal(testing::random_sparse(100, 4, 901, 0.4));
  const auto s = static_symbolic_factorization(a);
  auto part = amalgamate(s, find_supernodes(s, 8), 4, 8);
  const BlockLayout layout(s, std::move(part));
  SStarNumeric num(layout);
  num.assemble(a);
  num.factorize();

  const int n = layout.n();
  for (const int nrhs : {1, 2, 3, 5, 8, 17}) {
    // Row-major n x nrhs panel: row i's nrhs values contiguous.
    std::vector<std::vector<double>> cols;
    std::vector<double> panel(static_cast<std::size_t>(n) * nrhs);
    for (int c = 0; c < nrhs; ++c) {
      cols.push_back(testing::random_vector(n, 500 + c));
      for (int i = 0; i < n; ++i)
        panel[static_cast<std::size_t>(i) * nrhs + c] = cols.back()[i];
    }
    num.solve_panel(panel.data(), nrhs, /*transpose=*/true);
    for (int c = 0; c < nrhs; ++c) {
      const auto solo = num.solve_transpose(cols[c]);
      for (int i = 0; i < n; ++i)
        ASSERT_EQ(panel[static_cast<std::size_t>(i) * nrhs + c], solo[i])
            << "nrhs " << nrhs << " col " << c << " row " << i;
    }
  }
}

TEST(SolveTransposeMulti, SolverBitwiseVsSoloWithEquilibration) {
  for (const bool equilibrate : {false, true}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const auto a = testing::random_sparse(80, 5, 1200 + seed, 0.4);
      SolverOptions opt;
      opt.max_block = 10;
      opt.equilibrate = equilibrate;
      Solver solver(a, opt);
      solver.factorize();
      ASSERT_EQ(solver.setup().row_scale.empty(), !equilibrate);
      const int n = 80;
      const int nrhs = 7;
      std::vector<double> b(static_cast<std::size_t>(n) * nrhs);
      for (int c = 0; c < nrhs; ++c) {
        const auto col = testing::random_vector(n, 900 * seed + c);
        std::copy(col.begin(), col.end(),
                  b.begin() + static_cast<std::ptrdiff_t>(c) * n);
      }
      const auto batched = solver.solve_transpose_multi(b, nrhs);
      for (int c = 0; c < nrhs; ++c) {
        const std::vector<double> col(
            b.begin() + static_cast<std::ptrdiff_t>(c) * n,
            b.begin() + static_cast<std::ptrdiff_t>(c + 1) * n);
        const auto solo = solver.solve_transpose(col);
        for (int i = 0; i < n; ++i)
          ASSERT_EQ(batched[static_cast<std::size_t>(c) * n + i], solo[i])
              << "equilibrate " << equilibrate << " seed " << seed
              << " col " << c << " row " << i;
      }
    }
  }
}

TEST(SolveTransposeMulti, SolvesTransposedSystems) {
  const auto a = testing::random_sparse(70, 4, 77, 0.3);
  Solver solver(a);
  solver.factorize();
  const int n = 70;
  const int nrhs = 4;
  std::vector<double> want(static_cast<std::size_t>(n) * nrhs);
  for (int c = 0; c < nrhs; ++c) {
    const auto col = testing::random_vector(n, 40 + c);
    std::copy(col.begin(), col.end(),
              want.begin() + static_cast<std::ptrdiff_t>(c) * n);
  }
  const auto at = a.transpose();
  std::vector<double> b(want.size());
  for (int c = 0; c < nrhs; ++c) {
    const std::vector<double> wc(
        want.begin() + static_cast<std::ptrdiff_t>(c) * n,
        want.begin() + static_cast<std::ptrdiff_t>(c + 1) * n);
    const auto bc = at.multiply(wc);
    std::copy(bc.begin(), bc.end(),
              b.begin() + static_cast<std::ptrdiff_t>(c) * n);
  }
  const auto got = solver.solve_transpose_multi(b, nrhs);
  EXPECT_LT(testing::max_abs_diff(got, want), 1e-6);
}

TEST(SolveTransposeMulti, DegenerateWidths) {
  const auto a = testing::random_sparse(30, 3, 5);
  Solver solver(a);
  solver.factorize();
  EXPECT_TRUE(solver.solve_transpose_multi({}, 0).empty());
  EXPECT_THROW(solver.solve_transpose_multi(std::vector<double>(29), 1),
               CheckError);
  Solver unfactored(a);
  EXPECT_THROW(unfactored.solve_transpose_multi(std::vector<double>(30), 1),
               CheckError);
}

TEST(SolveTransposeMulti, CondestUnchangedByPanelPath) {
  // The estimator consumes solve_transpose, which now routes through
  // the panel kernels at ncols == 1; the estimate must stay a valid
  // lower bound with the usual quality on a known conditioning case.
  const auto a = testing::random_sparse(60, 4, 321);
  Solver solver(a);
  solver.factorize();
  const auto est = estimate_condition(solver, a);
  EXPECT_GT(est.condition, 0.0);
  EXPECT_GE(est.solves, 2);
}

}  // namespace
}  // namespace sstar
