// Tests for iterative refinement on top of the S* factorization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "serve/factorization.hpp"
#include "serve/session.hpp"
#include "solve/refine.hpp"
#include "solve/stability.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sstar {
namespace {

TEST(Refine, ConvergesImmediatelyOnWellConditioned) {
  const auto a = testing::random_sparse(60, 4, 5, /*weak=*/0.0);
  Solver solver(a);
  solver.factorize();
  const auto want = testing::random_vector(60, 9);
  const auto res = refined_solve(solver, a, a.multiply(want));
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 1);
  EXPECT_LT(res.backward_error, 1e-14);
  EXPECT_LT(testing::max_abs_diff(res.x, want), 1e-9);
}

TEST(Refine, ImprovesIllConditionedSolve) {
  // Scale rows wildly to degrade the plain solve, then refine.
  const int n = 50;
  auto base = testing::random_sparse(n, 4, 21, 0.0);
  std::vector<Triplet> t;
  Rng rng(3);
  std::vector<double> scale(n);
  for (int i = 0; i < n; ++i)
    scale[i] = std::pow(10.0, rng.uniform(-7.0, 7.0));
  for (int j = 0; j < n; ++j)
    for (int k = base.col_begin(j); k < base.col_end(j); ++k)
      t.push_back({base.row_idx()[k], j,
                   base.values()[k] * scale[base.row_idx()[k]]});
  const auto a = SparseMatrix::from_triplets(n, n, std::move(t));

  Solver solver(a);
  solver.factorize();
  const auto want = testing::random_vector(n, 11);
  const auto b = a.multiply(want);

  const auto plain = solver.solve(b);
  RefineOptions opt;
  const auto refined = refined_solve(solver, a, b, opt);
  EXPECT_TRUE(refined.converged);
  EXPECT_LE(refined.backward_error, 1e-14);
  // Refinement never loses to the plain solve — except when both scaled
  // residuals are already below machine epsilon, where the comparison is
  // roundoff noise (which plain solve "wins" depends on the kernel
  // backend's summation order).
  const double eps = std::numeric_limits<double>::epsilon();
  EXPECT_LE(testing::solve_residual(a, refined.x, b),
            std::max(testing::solve_residual(a, plain, b) * 1.01, eps));
}

TEST(Refine, ReportsFailureWhenCapped) {
  const auto a = testing::random_sparse(40, 3, 7, 0.0);
  Solver solver(a);
  solver.factorize();
  RefineOptions opt;
  opt.max_iterations = 0;
  opt.tolerance = 0.0;  // unreachable
  const auto res =
      refined_solve(solver, a, testing::random_vector(40, 1), opt);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

// A = [[1e-300, 0], [0.5, 1]] and b = (1e10, 1) solve to x = (inf, -inf).
// Where x or r is not finite the backward error is +inf, not the NaN
// that max() would drop, so no gate passes it, and refinement does not
// feed the non-finite residual into another solve.
TEST(Refine, NonFiniteSolutionNeverConverges) {
  const auto a = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1e-300}, {1, 0, 0.5}, {1, 1, 1.0}});
  const std::vector<double> b{1e10, 1.0};
  const double inf = std::numeric_limits<double>::infinity();
  const auto factor = serve::Factorization::create(a);
  const Solver& solver = factor->solver();

  const auto x = solver.solve(b);
  ASSERT_FALSE(std::isfinite(x[0]));
  const auto ax = a.multiply(x);
  const std::vector<double> r{b[0] - ax[0], b[1] - ax[1]};
  EXPECT_EQ(componentwise_backward_error(a, x, b, r), inf);

  const RefineResult one = refined_solve(solver, a, b);
  EXPECT_FALSE(one.converged);
  EXPECT_EQ(one.backward_error, inf);
  EXPECT_EQ(one.iterations, 0);

  // Next to a benign column, which still converges.
  std::vector<double> panel = b;
  panel.insert(panel.end(), {1e-300, 1.5});  // A (1, 1)
  serve::SolveSession session(factor);
  const RefineMultiResult multi = refined_solve_multi(session, a, panel, 2);
  EXPECT_FALSE(multi.converged[0]);
  EXPECT_EQ(multi.backward_error[0], inf);
  EXPECT_TRUE(multi.converged[1]);

  Solver guarded(a);
  guarded.factorize();
  EXPECT_FALSE(guarded_solve(guarded, a, b).gate_passed);
}

TEST(Refine, RequiresFactorizedSolver) {
  const auto a = testing::random_sparse(10, 2, 3);
  Solver solver(a);
  EXPECT_THROW(refined_solve(solver, a, std::vector<double>(10, 1.0)),
               CheckError);
}

}  // namespace
}  // namespace sstar
