// Differential harness for the serving layer: blocked multi-RHS and
// DAG-parallel session solves must be BITWISE identical, column for
// column, to the sequential single-RHS Solver::solve — fuzzed over a
// matrix suite x block sizes x RHS widths {1, 3, 8, 32} x session
// thread counts {1, 2, 4, 8} (override with SSTAR_SERVE_THREADS). The
// randomized fixtures re-roll under SSTAR_TEST_SEED like the rest of
// the suite. Also pins the refine/condest multi-RHS entry points
// against their single-RHS paths.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "serve/factorization.hpp"
#include "serve/session.hpp"
#include "solve/condest.hpp"
#include "solve/refine.hpp"
#include "test_helpers.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace sstar {
namespace {

std::vector<int> serve_thread_counts() {
  if (const char* env = std::getenv("SSTAR_SERVE_THREADS")) {
    const int t = std::atoi(env);
    if (t >= 1) return {t};
  }
  return {1, 2, 4, 8};
}

// Factor traversals a traced run made: one FS(0) span per panel sweep.
int sweeps(const trace::Trace& tr) {
  int n = 0;
  for (const trace::TraceEvent& e : tr.events)
    n += e.kind == trace::EventKind::kFSolve && e.k == 0 ? 1 : 0;
  return n;
}

// Bit-pattern equality: the contract is bitwise identity, not numeric
// closeness — NaN payloads and signed zeros included.
void expect_bits_equal(const std::vector<double>& got,
                       const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " differs at i=" << i << " got=" << got[i]
        << " want=" << want[i];
}

// Column-major n x nrhs random panel.
std::vector<double> random_panel(int n, int nrhs, std::uint64_t seed) {
  std::vector<double> b;
  b.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(nrhs));
  for (int c = 0; c < nrhs; ++c) {
    const auto col = testing::random_vector(n, seed + static_cast<std::uint64_t>(c));
    b.insert(b.end(), col.begin(), col.end());
  }
  return b;
}

struct Case {
  int n;
  std::uint64_t seed;
  SolverOptions opt;
};

std::vector<Case> suite() {
  std::vector<Case> cases;
  cases.push_back({90, 100, {}});
  {
    SolverOptions o;
    o.max_block = 8;  // many small supernodes: deep solve DAG
    cases.push_back({120, 101, o});
  }
  {
    SolverOptions o;
    o.equilibrate = true;  // scaled permute paths
    cases.push_back({100, 102, o});
  }
  {
    SolverOptions o;
    o.ordering = SolverOptions::Ordering::kNatural;
    cases.push_back({70, 103, o});
  }
  return cases;
}

TEST(ServeDifferential, SessionMatchesSolverBitwise) {
  for (const Case& cs : suite()) {
    const SparseMatrix a = testing::random_sparse(cs.n, 4, cs.seed);
    const auto factor = serve::Factorization::create(a, cs.opt);

    for (const int nrhs : {1, 3, 8, 32}) {
      const auto b = random_panel(cs.n, nrhs, cs.seed * 7 + 1);
      // Reference: every column through the sequential single-RHS path.
      std::vector<double> want(b.size());
      for (int c = 0; c < nrhs; ++c) {
        const std::vector<double> col(b.begin() + static_cast<std::ptrdiff_t>(c) * cs.n,
                                      b.begin() + static_cast<std::ptrdiff_t>(c + 1) * cs.n);
        const auto x = factor->solver().solve(col);
        std::copy(x.begin(), x.end(),
                  want.begin() + static_cast<std::ptrdiff_t>(c) * cs.n);
      }
      for (const int threads : serve_thread_counts()) {
        for (const int pw : {5, 32}) {
          serve::SolveSession session(factor, {threads, pw});
          trace::TraceCollector collector;
          collector.install();
          const auto got = session.solve_multi(b, nrhs);
          collector.uninstall();
          expect_bits_equal(got, want, "session solve_multi");
          EXPECT_EQ(sweeps(collector.take()), (nrhs + pw - 1) / pw);
        }
      }
    }
  }
}

TEST(ServeDifferential, SessionMatchesSolverSolveMulti) {
  // The serving path and Solver::solve_multi are both panel sweeps;
  // they must agree bitwise, chunking and threading included.
  const SparseMatrix a = testing::random_sparse(110, 4, 200);
  const auto factor = serve::Factorization::create(a);
  for (const int nrhs : {1, 3, 8, 32}) {
    const auto b = random_panel(110, nrhs, 201);
    const auto want = factor->solver().solve_multi(b, nrhs);
    for (const int threads : serve_thread_counts()) {
      serve::SolveSession session(factor, {threads, 32});
      expect_bits_equal(session.solve_multi(b, nrhs), want,
                        "vs Solver::solve_multi");
    }
  }
}

TEST(ServeDifferential, SingleRhsConvenienceMatches) {
  const SparseMatrix a = testing::random_sparse(80, 4, 300);
  const auto factor = serve::Factorization::create(a);
  const auto b = testing::random_vector(80, 301);
  const auto want = factor->solver().solve(b);
  for (const int threads : serve_thread_counts()) {
    serve::SolveSession session(factor, {threads, 32});
    expect_bits_equal(session.solve(b), want, "session solve");
  }
}

TEST(ServeDifferential, EmptyPanelIsANoop) {
  const SparseMatrix a = testing::random_sparse(40, 4, 400);
  const auto factor = serve::Factorization::create(a);
  serve::SolveSession session(factor);
  trace::TraceCollector collector;
  collector.install();
  const auto x = session.solve_multi({}, 0);
  collector.uninstall();
  EXPECT_TRUE(x.empty());
  EXPECT_EQ(sweeps(collector.take()), 0);
}

// A NaN or Inf in B fails before any sweep, naming its (row, col) in B,
// through every entry point that gathers B: the four Solver solves,
// refinement and sessions. A session that rejected a request solves the
// next one bitwise as before.
TEST(ServeDifferential, NonFiniteRightHandSideFailsBeforeAnySweep) {
  const int n = 60;
  const SparseMatrix a = testing::random_sparse(n, 4, 500);
  const auto factor = serve::Factorization::create(a);
  const Solver& solver = factor->solver();
  const auto expect_names = [](const auto& solve, const char* where) {
    try {
      solve();
      ADD_FAILURE() << "non-finite right-hand side accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
          << e.what();
    }
  };
  std::vector<double> b = testing::random_vector(n, 501);
  b[17] = std::numeric_limits<double>::quiet_NaN();
  // Column 2 of a 3-column panel: at panel width 1 the first two columns
  // would be swept before its gather.
  std::vector<double> panel = random_panel(n, 3, 502);
  panel[2 * n + 5] = -std::numeric_limits<double>::infinity();
  const std::vector<double> good = random_panel(n, 3, 503);

  expect_names([&] { solver.solve(b); }, "nan at (row 17, col 0)");
  expect_names([&] { solver.solve_transpose(b); }, "nan at (row 17, col 0)");
  expect_names([&] { solver.solve_multi(panel, 3); }, "inf at (row 5, col 2)");
  expect_names([&] { solver.solve_transpose_multi(panel, 3); },
               "inf at (row 5, col 2)");
  expect_names([&] { refined_solve(solver, a, b); }, "(row 17, col 0)");
  for (const int threads : serve_thread_counts()) {
    serve::SolveSession session(factor, {threads, 1});
    expect_names([&] { session.solve_multi(panel, 3); },
                 "inf at (row 5, col 2)");
    expect_names([&] { refined_solve_multi(session, a, panel, 3); },
                 "(row 5, col 2)");
    expect_bits_equal(session.solve_multi(good, 3),
                      solver.solve_multi(good, 3), "after a rejected request");
  }
}

TEST(RefineMulti, ColumnsBitwiseEqualSingleRhsPath) {
  for (const bool equilibrate : {false, true}) {
    SolverOptions opt;
    opt.equilibrate = equilibrate;
    const SparseMatrix a = testing::random_sparse(100, 4, 600, 0.4);
    const auto factor = serve::Factorization::create(a, opt);
    const int nrhs = 8;
    const auto b = random_panel(100, nrhs, 601);
    for (const int threads : serve_thread_counts()) {
      serve::SolveSession session(factor, {threads, 32});
      const auto multi = refined_solve_multi(session, a, b, nrhs);
      ASSERT_EQ(static_cast<int>(multi.iterations.size()), nrhs);
      for (int col = 0; col < nrhs; ++col) {
        const std::vector<double> bc(b.begin() + static_cast<std::ptrdiff_t>(col) * 100,
                                     b.begin() + static_cast<std::ptrdiff_t>(col + 1) * 100);
        const auto solo = refined_solve(factor->solver(), a, bc);
        const std::vector<double> xc(
            multi.x.begin() + static_cast<std::ptrdiff_t>(col) * 100,
            multi.x.begin() + static_cast<std::ptrdiff_t>(col + 1) * 100);
        expect_bits_equal(xc, solo.x, "refined column");
        EXPECT_EQ(multi.iterations[static_cast<std::size_t>(col)], solo.iterations);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      multi.backward_error[static_cast<std::size_t>(col)]),
                  std::bit_cast<std::uint64_t>(solo.backward_error));
        EXPECT_EQ(multi.converged[static_cast<std::size_t>(col)], solo.converged);
      }
    }
  }
}

TEST(CondestServe, SessionEstimateBitwiseEqualsSolverEstimate) {
  const SparseMatrix a = testing::random_sparse(120, 4, 700, 0.4);
  const auto factor = serve::Factorization::create(a);
  const auto want = estimate_condition(factor->solver(), a);
  for (const int threads : serve_thread_counts()) {
    serve::SolveSession session(factor, {threads, 32});
    const auto got = estimate_condition(session, a);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.a_norm1),
              std::bit_cast<std::uint64_t>(want.a_norm1));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.inv_norm1),
              std::bit_cast<std::uint64_t>(want.inv_norm1));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.condition),
              std::bit_cast<std::uint64_t>(want.condition));
    EXPECT_EQ(got.solves, want.solves);
    EXPECT_GT(got.condition, 0.0);
  }
}

}  // namespace
}  // namespace sstar
