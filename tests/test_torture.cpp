// Randomized full-pipeline torture sweep: every combination of the
// pipeline's knobs must factor, solve, and agree with the parallel
// executions. Catches interaction bugs no single-feature test sees.
#include <gtest/gtest.h>

#include <cmath>

#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "solve/refine.hpp"
#include "solve/solver.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace sstar {
namespace {

struct TortureCase {
  int n;
  int extra;           // off-diagonals per column
  double weak;         // weak-diagonal fraction
  int max_block;
  int amalg;
  int ordering;        // SolverOptions::Ordering index
  bool equilibrate;
  std::uint64_t seed;
};

class PipelineTorture : public ::testing::TestWithParam<TortureCase> {};

TEST_P(PipelineTorture, FactorsSolvesAndParallelAgrees) {
  const auto& c = GetParam();
  const auto a = testing::random_sparse(c.n, c.extra, 0x70 + c.seed * 131,
                                        c.weak);
  SolverOptions opt;
  opt.max_block = c.max_block;
  opt.amalgamation = c.amalg;
  opt.ordering = static_cast<SolverOptions::Ordering>(c.ordering);
  opt.equilibrate = c.equilibrate;

  Solver solver(a, opt);
  solver.factorize();

  // Solve quality (backward error via refinement report, one sweep max).
  const auto want = testing::random_vector(c.n, c.seed ^ 0xabc);
  const auto b = a.multiply(want);
  RefineOptions ropt;
  ropt.max_iterations = 2;
  const auto res = refined_solve(solver, a, b, ropt);
  EXPECT_LT(res.backward_error, 1e-12);

  // Multi-RHS consistency: single-RHS and multi-RHS solves are one
  // panel path, so they agree bit for bit.
  const auto x2 = solver.solve_multi(b, 1);
  const auto x1 = solver.solve(b);
  for (int i = 0; i < c.n; ++i) EXPECT_EQ(x2[i], x1[i]);

  // One run of the 2D program's kernels must reproduce the sequential
  // factors bit-for-bit.
  SStarNumeric num(*solver.setup().layout);
  num.assemble(solver.setup().permuted);
  const auto m = sim::MachineModel::cray_t3e(8);
  run_2d_real(*solver.setup().layout, m, true, num, 1);
  std::vector<double> bp(static_cast<std::size_t>(c.n));
  for (int i = 0; i < c.n; ++i)
    bp[i] = 0.5 + 0.01 * static_cast<double>(i % 31);
  const auto seq = solver.numeric().solve(bp);
  const auto par = num.solve(bp);
  for (int i = 0; i < c.n; ++i) ASSERT_EQ(seq[i], par[i]);
}

std::vector<TortureCase> torture_cases() {
  std::vector<TortureCase> cases;
  Rng rng(20260704);
  for (std::uint64_t i = 0; i < 24; ++i) {
    TortureCase c;
    c.n = rng.uniform_int(20, 140);
    c.extra = rng.uniform_int(2, 6);
    c.weak = rng.uniform(0.0, 0.4);
    c.max_block = rng.uniform_int(1, 30);
    c.amalg = rng.uniform_int(0, 8);
    c.ordering = rng.uniform_int(0, 3);  // mindeg, nd, rcm, natural
    c.equilibrate = rng.bernoulli(0.5);
    c.seed = i;
    cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, PipelineTorture,
                         ::testing::ValuesIn(torture_cases()));

}  // namespace
}  // namespace sstar
