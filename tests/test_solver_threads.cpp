// Solver::factorize runs the LU task DAG through exec::factorize_parallel
// on every CPU it may use. On a Solver's own analysis, that DAG's
// factors, pivots and FactorStats are bitwise those of the sequential
// loop SStarNumeric::factorize() at every worker count and kernel
// backend, and a singular matrix fails naming the loop's column. One
// Solver-level call per case checks the wiring at the default count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "blas/kernel_backend.hpp"
#include "core/task_graph.hpp"
#include "exec/lu_real.hpp"
#include "matrix/suite.hpp"
#include "solve/solver.hpp"
#include "test_helpers.hpp"

namespace sstar {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

SolverOptions small_blocks() {
  SolverOptions opt;
  opt.max_block = 16;
  return opt;
}

// Fresh factor storage holding `s`'s assembled matrix, ready to factor.
std::unique_ptr<SStarNumeric> assembled(const Solver& s) {
  auto num = std::make_unique<SStarNumeric>(s.layout());
  num->set_pivot_policy(s.options().pivot);
  num->assemble(s.setup().permuted);
  return num;
}

void expect_same_factors(const SStarNumeric& got, const SStarNumeric& want,
                         const std::string& where) {
  EXPECT_TRUE(exec::factors_bitwise_equal(want, got)) << where;
  EXPECT_EQ(got.pivot_of_col(), want.pivot_of_col()) << where;
  const FactorStats& gs = got.stats();
  const FactorStats& ws = want.stats();
  EXPECT_EQ(gs.flops.blas1, ws.flops.blas1) << where;
  EXPECT_EQ(gs.flops.blas2, ws.flops.blas2) << where;
  EXPECT_EQ(gs.flops.blas3, ws.flops.blas3) << where;
  EXPECT_EQ(gs.off_diagonal_pivots, ws.off_diagonal_pivots) << where;
  EXPECT_EQ(gs.relaxed_pivots, ws.relaxed_pivots) << where;
  EXPECT_EQ(gs.input_max_abs, ws.input_max_abs) << where;
}

TEST(SolverThreads, SuiteFactorsBitwiseLoopAtEveryCountAndBackend) {
  testing::BackendGuard guard;
  for (const gen::SuiteEntry& entry : gen::suite()) {
    const SparseMatrix a = entry.generate(/*scale=*/0.04, /*seed=*/3);
    Solver s(a, small_blocks());
    const LuTaskGraph graph(s.layout());
    for (const blas::KernelBackend kb : blas::supported_kernel_backends()) {
      ASSERT_TRUE(blas::set_kernel_backend(kb));
      const std::string where =
          entry.name + " " + blas::kernel_backend_name(kb);
      const auto ref = assembled(s);
      ref->factorize();
      for (const int nt : kThreadCounts) {
        const auto num = assembled(s);
        exec::factorize_parallel(graph, *num, nt);
        expect_same_factors(*num, *ref,
                            where + " threads=" + std::to_string(nt));
      }
      s.refactorize(s.options().pivot);
      expect_same_factors(s.numeric(), *ref, where + " Solver");
    }
  }
}

// 400 independent 2x2 diagonal blocks, blocks 37 and 351 singular: the
// 400 Factor tasks have no edges between them, so two workers can reach
// the two singular blocks in either order. Every run must name the
// column the sequential loop stops at.
TEST(SolverThreads, SingularBlocksNameTheLoopsColumnAtEveryCount) {
  constexpr int kBlocks = 400;
  std::vector<Triplet> t;
  for (int b = 0; b < kBlocks; ++b) {
    const bool singular = b == 37 || b == 351;
    const int r = 2 * b;
    t.push_back({r, r, singular ? 1.0 : 4.0});
    t.push_back({r + 1, r, singular ? 2.0 : 1.0});
    t.push_back({r, r + 1, singular ? 2.0 : 1.0});
    t.push_back({r + 1, r + 1, singular ? 4.0 : 3.0});
  }
  const SparseMatrix a =
      SparseMatrix::from_triplets(2 * kBlocks, 2 * kBlocks, t);
  Solver s(a, small_blocks());
  const LuTaskGraph graph(s.layout());

  // The loop's failing column, in A's numbering.
  int want = -1;
  try {
    assembled(s)->factorize();
  } catch (const PivotError& e) {
    want = s.setup().col_perm[e.column()];
  }
  ASSERT_TRUE(want / 2 == 37 || want / 2 == 351) << want;

  for (const int nt : kThreadCounts) {
    for (int rep = 0; rep < 50; ++rep) {
      const auto num = assembled(s);
      try {
        exec::factorize_parallel(graph, *num, nt);
        FAIL() << "singular matrix factorized at " << nt << " threads";
      } catch (const PivotError& e) {
        EXPECT_EQ(s.setup().col_perm[e.column()], want)
            << nt << " threads, run " << rep;
      }
    }
  }

  // Solver names the same column, already in A's numbering.
  try {
    s.factorize();
    FAIL() << "singular matrix factorized by Solver";
  } catch (const PivotError& e) {
    EXPECT_EQ(e.column(), want);
  }
  EXPECT_FALSE(s.factorized());
}

}  // namespace
}  // namespace sstar
