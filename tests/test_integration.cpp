// End-to-end integration sweeps over the benchmark-suite replicas: the
// paper's structural theorems and the numerical pipeline exercised on
// realistic (if tiny-scale) structures rather than random graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baseline/gplu.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "matrix/suite.hpp"
#include "solve/refine.hpp"
#include "solve/solver.hpp"
#include "test_helpers.hpp"

namespace sstar {
namespace {

class SuiteIntegration : public ::testing::TestWithParam<const char*> {
 protected:
  static SolverSetup setup_for(const SparseMatrix& a) {
    SolverOptions opt;
    opt.max_block = 12;
    return prepare(a, opt);
  }
};

TEST_P(SuiteIntegration, StaticStructureBoundsGpluFill) {
  // The George-Ng guarantee on suite structures. GPLU pivots logically
  // (L keeps original row labels; rows never move), so its L columns are
  // not directly comparable cell-by-cell with the static structure's
  // storage-row space — but two statements transfer exactly:
  //  - per column, GPLU's multiplier count (#real candidates - 1) is
  //    bounded by the static candidate count;
  //  - U rows live in pivot-POSITION space in both formulations, so U
  //    containment is positional and exact.
  const auto a = gen::suite_entry(GetParam()).generate(0.03, 7);
  const auto setup = setup_for(a);
  const auto& s = setup.structure;
  const auto f = baseline::gplu_factor(setup.permuted);

  for (int j = 0; j < f.n; ++j) {
    ASSERT_LE(static_cast<std::int64_t>(f.l_rows[j].size()),
              s.l_col_ptr[j + 1] - s.l_col_ptr[j])
        << GetParam() << ": L column " << j << " exceeds the static bound";
    for (std::size_t e = 0; e < f.u_pos[j].size(); ++e) {
      const int k = f.u_pos[j][e];
      ASSERT_TRUE(std::binary_search(s.u_cols.begin() + s.u_row_ptr[k],
                                     s.u_cols.begin() + s.u_row_ptr[k + 1],
                                     j))
          << GetParam() << ": U(" << k << "," << j << ") escaped";
    }
  }
}

TEST_P(SuiteIntegration, ParallelRunsMatchSequentialBitwise) {
  const auto a = gen::suite_entry(GetParam()).generate(0.03, 11);
  const auto setup = setup_for(a);

  SStarNumeric seq(*setup.layout);
  seq.assemble(setup.permuted);
  seq.factorize();
  const auto b = testing::random_vector(a.rows(), 3);
  const auto want = seq.solve(b);

  const auto m = sim::MachineModel::cray_t3e(8);
  for (int mode = 0; mode < 3; ++mode) {
    SStarNumeric num(*setup.layout);
    num.assemble(setup.permuted);
    if (mode == 0)
      run_1d_real(*setup.layout, m.with_grid({1, 8}),
                  Schedule1DKind::kComputeAhead, num, 1);
    else if (mode == 1)
      run_1d_real(*setup.layout, m.with_grid({1, 8}), Schedule1DKind::kGraph,
                  num, 1);
    else
      run_2d_real(*setup.layout, m, /*async=*/true, num, 1);
    const auto got = num.solve(b);
    for (int i = 0; i < a.rows(); ++i)
      ASSERT_EQ(got[i], want[i]) << GetParam() << " mode " << mode;
  }
}

TEST_P(SuiteIntegration, RefinedSolveReachesWorkingAccuracy) {
  const auto a = gen::suite_entry(GetParam()).generate(0.03, 13);
  Solver solver(a);
  solver.factorize();
  const auto want = testing::random_vector(a.rows(), 17);
  const auto b = a.multiply(want);
  const auto res = refined_solve(solver, a, b);
  EXPECT_TRUE(res.converged) << GetParam();
  EXPECT_LT(res.backward_error, 1e-13) << GetParam();
}

TEST_P(SuiteIntegration, GrowthFactorModest) {
  const auto a = gen::suite_entry(GetParam()).generate(0.03, 19);
  Solver solver(a);
  solver.factorize();
  const double g = solver.numeric().growth_factor();
  EXPECT_GE(g, 0.9) << "growth below 1 would mean a lost pivot";
  EXPECT_LT(g, 1e4) << GetParam()
                    << ": partial pivoting should keep growth small";
}

INSTANTIATE_TEST_SUITE_P(Replicas, SuiteIntegration,
                         ::testing::Values("sherman5", "lnsp3937",
                                           "jpwh991", "orsreg1", "goodwin",
                                           "ex11", "af23560", "vavasis3",
                                           "dense1000"));

}  // namespace
}  // namespace sstar
