// Edge cases and determinism guarantees across the library.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/lu_2d.hpp"
#include "matrix/io.hpp"
#include "ordering/transversal.hpp"
#include "solve/refine.hpp"
#include "solve/solver.hpp"
#include "solve/stability.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sstar {
namespace {

TEST(EdgeCases, OneByOneMatrix) {
  const auto a = SparseMatrix::from_triplets(1, 1, {{0, 0, 3.0}});
  Solver solver(a);
  solver.factorize();
  const auto x = solver.solve({6.0});
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  EXPECT_EQ(solver.layout().num_blocks(), 1);
}

TEST(EdgeCases, DiagonalMatrix) {
  std::vector<Triplet> t;
  for (int i = 0; i < 12; ++i) t.push_back({i, i, static_cast<double>(i + 1)});
  Solver solver(SparseMatrix::from_triplets(12, 12, t));
  solver.factorize();
  std::vector<double> b(12, 1.0);
  const auto x = solver.solve(b);
  for (int i = 0; i < 12; ++i) EXPECT_DOUBLE_EQ(x[i], 1.0 / (i + 1));
  EXPECT_EQ(solver.stats().off_diagonal_pivots, 0);
}

TEST(EdgeCases, UpperTriangularInput) {
  std::vector<Triplet> t;
  for (int i = 0; i < 10; ++i) {
    t.push_back({i, i, 2.0});
    for (int j = i + 1; j < 10; ++j)
      if ((i + j) % 3 == 0) t.push_back({i, j, 1.0});
  }
  const auto a = SparseMatrix::from_triplets(10, 10, std::move(t));
  Solver solver(a);
  solver.factorize();
  const auto want = testing::random_vector(10, 5);
  EXPECT_LT(testing::max_abs_diff(solver.solve(a.multiply(want)), want),
            1e-12);
}

TEST(EdgeCases, LowerBidiagonalStaysBidiagonal) {
  // Lower bidiagonal: at each step the candidates are rows k and k+1,
  // so the static structure is exactly tridiagonal-in-the-band — the
  // subdiagonal L entry plus a superdiagonal U entry that appears iff
  // the pivot search picks row k+1. No wider fill is possible.
  const int n = 15;
  std::vector<Triplet> t;
  for (int i = 0; i < n; ++i) {
    t.push_back({i, i, 3.0});
    if (i > 0) t.push_back({i, i - 1, 1.0});
  }
  const auto a = SparseMatrix::from_triplets(n, n, std::move(t));
  const auto s = static_symbolic_factorization(a);
  EXPECT_EQ(s.l_nnz(), n - 1);                      // one per column
  EXPECT_EQ(s.u_nnz(), n + (n - 1));                // diag + superdiag
  EXPECT_EQ(s.factor_entries(), 3 * (n - 1) + 1);
}

TEST(EdgeCases, EmptyMatrixMarketRoundTrip) {
  // A matrix with zero stored entries still round-trips.
  const auto m = SparseMatrix::from_triplets(3, 4, {});
  std::stringstream ss;
  io::write_matrix_market(m, ss);
  const auto back = io::read_matrix_market(ss);
  EXPECT_EQ(back.rows(), 3);
  EXPECT_EQ(back.cols(), 4);
  EXPECT_EQ(back.nnz(), 0);
}

TEST(Determinism, SolverPipelineIsBitStable) {
  const auto a = testing::random_sparse(60, 4, 99);
  Solver s1(a), s2(a);
  s1.factorize();
  s2.factorize();
  EXPECT_EQ(s1.setup().row_perm, s2.setup().row_perm);
  EXPECT_EQ(s1.setup().col_perm, s2.setup().col_perm);
  const auto b = testing::random_vector(60, 1);
  const auto x1 = s1.solve(b);
  const auto x2 = s2.solve(b);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(x1[i], x2[i]);
}

TEST(Determinism, SimulatedRunsAreBitStable) {
  const auto a = make_zero_free_diagonal(testing::random_sparse(70, 4, 7));
  const auto s = static_symbolic_factorization(a);
  const BlockLayout layout(s, amalgamate(s, find_supernodes(s, 8), 4, 8));
  const auto m = sim::MachineModel::cray_t3e(8);
  const auto r1 = run_2d(layout, m, true);
  const auto r2 = run_2d(layout, m, true);
  EXPECT_EQ(r1.seconds, r2.seconds);
  EXPECT_EQ(r1.comm_bytes, r2.comm_bytes);
  EXPECT_EQ(r1.overlap_all, r2.overlap_all);
}

TEST(MachineModel, WithGridValidatesSize) {
  const auto m = sim::MachineModel::cray_t3e(8);
  EXPECT_THROW(m.with_grid({3, 3}), CheckError);
  const auto ok = m.with_grid({8, 1});
  EXPECT_EQ(ok.grid.rows, 8);
}

TEST(Amalgamation, MonotoneInR) {
  const auto a = make_zero_free_diagonal(testing::random_sparse(80, 4, 3));
  const auto s = static_symbolic_factorization(a);
  const auto base = find_supernodes(s, 16);
  int prev_blocks = base.count();
  std::int64_t prev_stored = BlockLayout(s, base).stored_entries();
  for (const int r : {1, 2, 4, 8, 16}) {
    const auto p = amalgamate(s, base, r, 16);
    EXPECT_LE(p.count(), prev_blocks) << "r=" << r;
    const BlockLayout lay(s, p);
    EXPECT_GE(lay.stored_entries(), s.factor_entries());
    prev_blocks = p.count();
    prev_stored = lay.stored_entries();
  }
  (void)prev_stored;
}

TEST(Solver, PermutedSolveMatchesUnpermutedSemantics) {
  // Whatever permutations the pipeline chooses internally, solve() must
  // answer in the caller's indexing.
  const int n = 30;
  std::vector<Triplet> t;
  Rng rng(8);
  // A matrix with a shifted diagonal so the transversal must act.
  for (int j = 0; j < n; ++j) {
    t.push_back({(j + 3) % n, j, 5.0 + rng.uniform()});
    t.push_back({(j + 7) % n, j, rng.uniform(-1.0, 1.0)});
  }
  const auto a = SparseMatrix::from_triplets(n, n, std::move(t));
  Solver solver(a);
  solver.factorize();
  // Unit-vector solves reconstruct columns of A^{-1}: A * x_i = e_i.
  for (int i = 0; i < 5; ++i) {
    std::vector<double> e(n, 0.0);
    e[i] = 1.0;
    const auto x = solver.solve(e);
    const auto ax = a.multiply(x);
    for (int r = 0; r < n; ++r)
      EXPECT_NEAR(ax[r], r == i ? 1.0 : 0.0, 1e-10);
  }
}

// Hostile matrices, each solved with and without equilibration. Every
// case states its contract and the test asserts it: the guarded solve
// passes with componentwise backward error <= 1e-12, or it reports a
// failed gate, or construction/factorization throws a CheckError (or
// PivotError) naming the offending column or row. Nothing may crash,
// hang, or return a non-finite x under a passing gate.
enum class Contract { kPass, kGateFails, kThrows };

struct HostileCase {
  const char* name;
  int n;
  std::vector<Triplet> entries;
  std::vector<double> b;
  Contract plain;         // without equilibration
  Contract equilibrated;  // with it
  const char* names = "";  // kThrows: what the message must name
};

std::vector<HostileCase> hostile_gallery() {
  const auto pass = Contract::kPass;
  const auto fails = Contract::kGateFails;
  const auto throws = Contract::kThrows;
  return {
      {"n = 0", 0, {}, {}, pass, pass},
      {"n = 1", 1, {{0, 0, 3.0}}, {6.0}, pass, pass},
      {"n = 2", 2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 3.0}},
       {3.0, 4.0}, pass, pass},
      {"empty column", 3, {{0, 0, 1.0}, {1, 0, 1.0}, {1, 2, 1.0},
                           {2, 2, 1.0}},
       {1.0, 1.0, 1.0}, throws, throws, "column 1"},
      {"empty row", 3, {{0, 0, 1.0}, {0, 1, 1.0}, {0, 2, 2.0}, {1, 1, 1.0},
                        {1, 2, 1.0}},
       {1.0, 1.0, 1.0}, throws, throws, "row 2"},
      // Duplicates are summed: A = [[2, 0], [1, 3]].
      {"duplicate entries", 2, {{0, 0, 1.0}, {0, 0, 1.0}, {1, 0, 0.5},
                                {1, 0, 0.5}, {1, 1, 3.0}},
       {2.0, 4.0}, pass, pass},
      // Stored zeros on the diagonal: the transversal may match them, and
      // the pivot search must still find the off-diagonal ones.
      {"explicit zeros", 2, {{0, 0, 0.0}, {0, 1, 1.0}, {1, 0, 1.0},
                             {1, 1, 0.0}},
       {1.0, 2.0}, pass, pass},
      {"zero pivot", 2, {{0, 0, 1.0}, {1, 1, 0.0}}, {1.0, 1.0}, throws,
       throws, "column 1"},
      {"1e-310 diagonal", 2, {{0, 0, 1e-310}, {1, 1, 1.0}}, {1e-310, 1.0},
       pass, pass},
      {"4e-320 diagonal", 2, {{0, 0, 4e-320}, {1, 1, 1.0}}, {4e-320, 1.0},
       pass, pass},
      // Rows scaled by 1e300 and 1e-300: without equilibration the
      // multiplier 1e-600 underflows to 0, and one refinement step does
      // not recover; equilibration makes the matrix [[1, 1], [1, 2]].
      {"1e+-300 scaling", 2, {{0, 0, 1e300}, {0, 1, 1e300}, {1, 0, 1e-300},
                              {1, 1, 2e-300}},
       {2e300, 3e-300}, fails, pass},
      // x = (1e310, -1e310) overflows to (inf, -inf).
      {"overflowing solution", 2, {{0, 0, 1e-300}, {1, 0, 0.5}, {1, 1, 1.0}},
       {1e10, 1.0}, fails, fails},
  };
}

TEST(EdgeCases, HostileMatrixGallery) {
  for (const HostileCase& c : hostile_gallery()) {
    const SparseMatrix a = SparseMatrix::from_triplets(c.n, c.n, c.entries);
    for (const bool equilibrate : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << c.name << (equilibrate ? ", equilibrated" : ""));
      const Contract want = equilibrate ? c.equilibrated : c.plain;
      SolverOptions opt;
      opt.equilibrate = equilibrate;
      if (want == Contract::kThrows) {
        try {
          Solver solver(a, opt);
          solver.factorize();
          ADD_FAILURE() << "accepted";
        } catch (const CheckError& e) {
          EXPECT_NE(std::string(e.what()).find(c.names), std::string::npos)
              << e.what();
        }
        continue;
      }
      Solver solver(a, opt);
      solver.factorize();
      const StabilityReport rep = guarded_solve(solver, a, c.b);
      ASSERT_EQ(rep.x.size(), static_cast<std::size_t>(c.n));
      const bool finite = std::all_of(
          rep.x.begin(), rep.x.end(),
          [](double v) { return std::isfinite(v); });
      EXPECT_TRUE(finite || !rep.gate_passed);
      EXPECT_EQ(rep.gate_passed, want == Contract::kPass) << rep.describe();
      if (want != Contract::kPass) continue;
      const std::vector<double> ax = a.multiply(rep.x);
      std::vector<double> r(c.b.size());
      for (std::size_t i = 0; i < r.size(); ++i) r[i] = c.b[i] - ax[i];
      EXPECT_LE(componentwise_backward_error(a, rep.x, c.b, r), 1e-12);
    }
  }
}

}  // namespace
}  // namespace sstar
