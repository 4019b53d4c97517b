// End-to-end tests of the public Solver facade, including all ordering
// options and the generated benchmark suite.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "matrix/generators.hpp"
#include "matrix/pattern_ops.hpp"
#include "matrix/suite.hpp"
#include "solve/solver.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sstar {
namespace {

void expect_solves(const SparseMatrix& a, SolverOptions opt,
                   double tol = 1e-7) {
  Solver solver(a, opt);
  solver.factorize();
  const auto want = testing::random_vector(a.rows(), 4242);
  const auto b = a.multiply(want);
  const auto got = solver.solve(b);
  EXPECT_LT(testing::max_abs_diff(got, want), tol);
  EXPECT_LT(testing::solve_residual(a, got, b), 1e-12);
}

TEST(Solver, SolvesWithEachOrdering) {
  const auto a = testing::random_sparse(80, 4, 77);
  for (const auto ord : {SolverOptions::Ordering::kMinDegreeAtA,
                         SolverOptions::Ordering::kRcm,
                         SolverOptions::Ordering::kNatural}) {
    SolverOptions opt;
    opt.ordering = ord;
    expect_solves(a, opt);
  }
}

TEST(Solver, SolvesShiftedDiagonalMatrix) {
  // A matrix needing the transversal: cyclic shift plus noise.
  const int n = 40;
  std::vector<Triplet> t;
  Rng rng(17);
  for (int j = 0; j < n; ++j) {
    t.push_back({(j + 1) % n, j, 3.0 + rng.uniform()});
    t.push_back({(j + 7) % n, j, rng.uniform(-1.0, 1.0)});
  }
  expect_solves(SparseMatrix::from_triplets(n, n, std::move(t)),
                SolverOptions{});
}

TEST(Solver, RejectsSolveBeforeFactorize) {
  Solver solver(testing::random_sparse(10, 2, 3));
  EXPECT_THROW(solver.solve(std::vector<double>(10, 1.0)), CheckError);
}

TEST(Solver, RejectsStructurallySingular) {
  const auto a = SparseMatrix::from_triplets(
      3, 3, {{0, 0, 1.0}, {1, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}});
  EXPECT_THROW(Solver{a}, CheckError);
}

// Plants `value` at the first stored entry of column 7 that is (`diag`)
// or is not the diagonal, and expects prepare() to name that entry by its
// original (row, col) before the pivot search can misreport it.
void expect_rejects_non_finite(double value, bool diag) {
  auto a = testing::random_sparse(40, 4, 19);
  int row = -1;
  for (int k = a.col_begin(7); k < a.col_end(7) && row < 0; ++k) {
    if ((a.row_idx()[k] == 7) != diag) continue;
    row = a.row_idx()[k];
    a.values()[k] = value;
  }
  ASSERT_GE(row, 0);
  try {
    Solver solver(a);
    FAIL() << "non-finite entry accepted";
  } catch (const CheckError& e) {
    const std::string where =
        "at (row " + std::to_string(row) + ", col 7)";
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << e.what();
  }
}

TEST(Solver, RejectsNaNOnDiagonal) {
  expect_rejects_non_finite(std::nan(""), /*diag=*/true);
}

TEST(Solver, RejectsNaNOffDiagonal) {
  expect_rejects_non_finite(std::nan(""), /*diag=*/false);
}

TEST(Solver, OverflowingPivotFailsNamingItsColumn) {
  // Every entry is finite, so prepare() accepts the matrix, but without
  // equilibration the update of column 1 overflows: its pivot magnitude
  // is Inf. Factorization must refuse it, not return x = (0, -1e-308).
  const auto a = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1e308}, {1, 0, 1e308}, {0, 1, 1e308}, {1, 1, -1e308}});
  Solver solver(a);
  try {
    solver.factorize();
    FAIL() << "overflowed pivot accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-finite pivot"), std::string::npos) << what;
    EXPECT_NE(what.find("at column 1"), std::string::npos) << what;
  }
}

TEST(Solver, RejectsInfinity) {
  expect_rejects_non_finite(std::numeric_limits<double>::infinity(),
                            /*diag=*/true);
}

TEST(Solver, OrderingReducesFillOnStencil) {
  gen::ValueOptions vo;
  vo.seed = 5;
  const auto a = gen::stencil5(16, 16, 0.0, vo);
  SolverOptions natural;
  natural.ordering = SolverOptions::Ordering::kNatural;
  SolverOptions mindeg;
  const auto s_nat = prepare(a, natural);
  const auto s_md = prepare(a, mindeg);
  EXPECT_LT(s_md.structure.factor_entries(),
            s_nat.structure.factor_entries());
}

TEST(Solver, AmalgamationGrowsBlocksAndKeepsCorrectness) {
  gen::ValueOptions vo;
  vo.seed = 9;
  const auto a = gen::fem2d(8, 8, 2, 0.0, vo);
  SolverOptions r0;
  r0.amalgamation = 0;
  SolverOptions r6;
  r6.amalgamation = 6;
  const auto s0 = prepare(a, r0);
  const auto s6 = prepare(a, r6);
  EXPECT_LE(s6.layout->num_blocks(), s0.layout->num_blocks());
  expect_solves(a, r6, 1e-6);
}

class SuiteSmoke : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteSmoke, GeneratesAndSolvesAtTinyScale) {
  const auto& entry = gen::suite_entry(GetParam());
  const auto a = entry.generate(/*scale=*/0.04, /*seed=*/3);
  ASSERT_GT(a.rows(), 0);
  EXPECT_EQ(a.zero_diagonal_count(), 0)
      << "generators must emit full diagonals";
  SolverOptions opt;
  opt.max_block = 16;
  expect_solves(a, opt, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    AllMatrices, SuiteSmoke,
    ::testing::Values("sherman5", "lnsp3937", "lns3937", "sherman3",
                      "jpwh991", "orsreg1", "saylr4", "goodwin", "e40r0100",
                      "ex11", "raefsky4", "inaccura", "af23560", "vavasis3",
                      "b33_5600", "dense1000", "memplus", "wang3"));

TEST(Suite, StatisticsRoughlyMatchPaperAtFullScale) {
  // Order must match the published order closely and nnz within a loose
  // factor for the small matrices (structural replicas, not copies).
  for (const char* name : {"sherman5", "jpwh991", "orsreg1", "saylr4"}) {
    const auto& e = gen::suite_entry(name);
    const auto a = e.generate(1.0, 1);
    EXPECT_NEAR(a.rows(), e.paper_order, e.paper_order * 0.02) << name;
    EXPECT_NEAR(static_cast<double>(a.nnz()),
                static_cast<double>(e.paper_nnz), 0.25 * e.paper_nnz)
        << name;
  }
}

TEST(Suite, LookupFailsOnUnknownName) {
  EXPECT_THROW(gen::suite_entry("nonexistent"), CheckError);
}

TEST(Suite, PrincipalSubmatrixTruncates) {
  const auto a = testing::random_sparse(20, 3, 5);
  const auto b = gen::principal_submatrix(a, 12);
  EXPECT_EQ(b.rows(), 12);
  for (int j = 0; j < 12; ++j)
    for (int k = b.col_begin(j); k < b.col_end(j); ++k)
      EXPECT_DOUBLE_EQ(b.values()[k], a.at(b.row_idx()[k], j));
}

}  // namespace
}  // namespace sstar
