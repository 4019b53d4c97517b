// End-to-end tests of the public Solver facade, including all ordering
// options and the generated benchmark suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>

#include "matrix/generators.hpp"
#include "matrix/pattern_ops.hpp"
#include "matrix/suite.hpp"
#include "ordering/etree.hpp"
#include "ordering/min_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "ordering/rcm.hpp"
#include "ordering/transversal.hpp"
#include "solve/solver.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
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

// The message names a column and a row the maximum transversal leaves
// unmatched, in A's own numbering.
TEST(Solver, StructurallySingularNamesUnmatchedColumnAndRow) {
  const auto a =
      SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {1, 0, 1.0}});
  try {
    Solver solver(a);
    FAIL() << "structurally singular matrix accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("only 1 of 2 columns matched"), std::string::npos)
        << what;
    EXPECT_NE(what.find("column 1 and row 1 are unmatched"),
              std::string::npos)
        << what;
  }
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
    // col_perm is [1 0]: the failing permuted column 1 is A's column 0.
    EXPECT_NE(what.find("at column 0"), std::string::npos) << what;
  }
}

TEST(Solver, SingularPivotNamesTheCallersColumn) {
  // Columns 0 and 3 are equal, so the matrix is singular; the rest is
  // regular. The ordering permutes A's column 0 to position 5, where
  // factorization stops: the error must name column 0, not 5, after a
  // refactorize as well.
  const auto a = SparseMatrix::from_triplets(
      6, 6, {{0, 0, 1.0}, {3, 0, 1.0}, {0, 3, 1.0}, {3, 3, 1.0},
             {1, 1, 2.0}, {2, 2, 2.0}, {4, 4, 2.0}, {5, 5, 2.0},
             {1, 5, 1.0}, {5, 1, 1.0}, {2, 4, 1.0}, {4, 2, 1.0}});
  Solver solver(a);
  ASSERT_EQ(solver.setup().col_perm, (std::vector<int>{5, 1, 4, 2, 3, 0}));
  for (const bool refactor : {false, true}) {
    try {
      if (refactor)
        solver.refactorize(PivotPolicy{});
      else
        solver.factorize();
      FAIL() << "singular matrix factorized";
    } catch (const PivotError& e) {
      EXPECT_EQ(e.column(), 0);
      EXPECT_EQ(std::string(e.what()),
                "matrix is numerically singular at column 0");
    }
  }
}

TEST(Solver, FailedRefactorizeLeavesSolverUnfactorized) {
  // Factorizes at the default threshold. The pipeline puts A's column 1
  // first; at threshold 1e-310 its diagonal 1e-300 stays the pivot
  // (1e-300 >= 1e-310 * 1e10), so the multiplier 1e10 / 1e-300
  // overflows, and Factor names that column.
  const auto a = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {1, 0, 1e10}, {0, 1, 1e10}, {1, 1, 1e-300}});
  Solver solver(a);
  solver.factorize();
  ASSERT_TRUE(solver.factorized());
  PivotPolicy loose;
  loose.threshold = 1e-310;
  try {
    solver.refactorize(loose);
    FAIL() << "overflowed multiplier accepted";
  } catch (const PivotError& e) {
    EXPECT_EQ(e.cause(), PivotError::Cause::kOverflow);
    EXPECT_EQ(e.column(), 1);
    EXPECT_EQ(std::string(e.what()),
              "factor entry overflowed to inf at column 1");
  }
  EXPECT_FALSE(solver.factorized());
  try {
    solver.solve({1.0, 1.0});
    FAIL() << "solve after a failed refactorize";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("solve before factorize()"), std::string::npos)
        << what;
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

/// prepare() as it ran before it built AᵀA once: an equilibrated copy of
/// A, a row-permuted copy for the transversal, AᵀA of that for the
/// ordering, a symmetric permute, AᵀA again for the postorder etree, and
/// a second permute.
SolverSetup two_ata_reference(const SparseMatrix& a, const SolverOptions& opt) {
  const int n = a.rows();
  SolverSetup setup;
  SparseMatrix a0 = a;
  if (opt.equilibrate) {
    setup.row_scale.assign(static_cast<std::size_t>(n), 0.0);
    for (int j = 0; j < n; ++j)
      for (int k = a0.col_begin(j); k < a0.col_end(j); ++k)
        setup.row_scale[a0.row_idx()[k]] =
            std::max(setup.row_scale[a0.row_idx()[k]],
                     std::fabs(a0.values()[k]));
    for (double& s : setup.row_scale) s = s > 0.0 ? 1.0 / s : 1.0;
    setup.col_scale.assign(static_cast<std::size_t>(n), 0.0);
    for (int j = 0; j < n; ++j)
      for (int k = a0.col_begin(j); k < a0.col_end(j); ++k)
        setup.col_scale[j] =
            std::max(setup.col_scale[j],
                     std::fabs(a0.values()[k]) *
                         setup.row_scale[a0.row_idx()[k]]);
    for (double& s : setup.col_scale) s = s > 0.0 ? 1.0 / s : 1.0;
    for (int j = 0; j < n; ++j)
      for (int k = a0.col_begin(j); k < a0.col_end(j); ++k)
        a0.values()[k] *=
            setup.row_scale[a0.row_idx()[k]] * setup.col_scale[j];
  }
  std::vector<int> rowt;
  SparseMatrix a1 = make_zero_free_diagonal(a0, &rowt);
  std::vector<int> q(n);
  std::iota(q.begin(), q.end(), 0);
  switch (opt.ordering) {
    case SolverOptions::Ordering::kMinDegreeAtA:
      q = min_degree_order(ata_pattern(a1));
      break;
    case SolverOptions::Ordering::kNestedDissection:
      q = nested_dissection_order(ata_pattern(a1));
      break;
    case SolverOptions::Ordering::kRcm:
      q = rcm_order(aplusat_pattern(a1));
      break;
    case SolverOptions::Ordering::kNatural:
      break;
  }
  setup.permuted = a1.permuted(q, q);
  if (opt.ordering != SolverOptions::Ordering::kNatural) {
    const auto post =
        postorder(elimination_tree(ata_pattern(setup.permuted)));
    setup.permuted = setup.permuted.permuted(post, post);
    std::vector<int> composed(n);
    for (int i = 0; i < n; ++i) composed[i] = q[post[i]];
    q = std::move(composed);
  }
  setup.row_perm.resize(n);
  setup.col_perm = q;
  for (int i = 0; i < n; ++i) setup.row_perm[i] = rowt[q[i]];
  setup.structure = static_symbolic_factorization(setup.permuted);
  SupernodePartition part = find_supernodes(setup.structure, opt.max_block);
  setup.presplit_avg_width = part.average_width();
  part = amalgamate(setup.structure, part, opt.amalgamation, opt.max_block);
  setup.layout = std::make_unique<BlockLayout>(setup.structure,
                                               std::move(part));
  return setup;
}

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

TEST(Prepare, MatchesTwoAtaReference) {
  using Ordering = SolverOptions::Ordering;
  for (const auto& entry : gen::suite()) {
    // The large matrices at a smaller scale keep every matrix under
    // about a thousand columns, and the case quick in sanitizer builds.
    const auto a = entry.generate(entry.large ? 0.015 : 0.04, /*seed=*/11);
    for (const Ordering ord :
         {Ordering::kMinDegreeAtA, Ordering::kNestedDissection,
          Ordering::kRcm, Ordering::kNatural}) {
      for (const bool eq : {false, true}) {
        SolverOptions opt;
        opt.ordering = ord;
        opt.equilibrate = eq;
        const std::string where = entry.name + " ordering " +
                                  std::to_string(static_cast<int>(ord)) +
                                  (eq ? " equilibrated" : "");
        const SolverSetup got = prepare(a, opt);
        const SolverSetup want = two_ata_reference(a, opt);
        EXPECT_TRUE(got.permuted.same_pattern(want.permuted)) << where;
        EXPECT_TRUE(same_bits(got.permuted.values(), want.permuted.values()))
            << where;
        EXPECT_EQ(got.row_perm, want.row_perm) << where;
        EXPECT_EQ(got.col_perm, want.col_perm) << where;
        EXPECT_TRUE(same_bits(got.row_scale, want.row_scale)) << where;
        EXPECT_TRUE(same_bits(got.col_scale, want.col_scale)) << where;
        EXPECT_EQ(got.structure.n, want.structure.n) << where;
        EXPECT_EQ(got.structure.l_col_ptr, want.structure.l_col_ptr) << where;
        EXPECT_EQ(got.structure.l_rows, want.structure.l_rows) << where;
        EXPECT_EQ(got.structure.u_row_ptr, want.structure.u_row_ptr) << where;
        EXPECT_EQ(got.structure.u_cols, want.structure.u_cols) << where;
        EXPECT_EQ(got.layout->partition().start,
                  want.layout->partition().start)
            << where;
        EXPECT_EQ(got.presplit_avg_width, want.presplit_avg_width) << where;
      }
    }
  }
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
