// Tests for the distributed triangular solve driver.
#include <gtest/gtest.h>

#include "core/solve_1d.hpp"
#include "ordering/transversal.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"

namespace sstar {
namespace {

struct Fixture {
  SparseMatrix a;
  StaticStructure s;
  std::unique_ptr<BlockLayout> layout;
  std::unique_ptr<SStarNumeric> num;

  static Fixture make(int n, std::uint64_t seed, double weak = 0.2) {
    Fixture f;
    f.a = make_zero_free_diagonal(
        testing::random_sparse(n, 4, seed, weak));
    f.s = static_symbolic_factorization(f.a);
    auto part = amalgamate(f.s, find_supernodes(f.s, 8), 4, 8);
    f.layout = std::make_unique<BlockLayout>(f.s, std::move(part));
    f.num = std::make_unique<SStarNumeric>(*f.layout);
    f.num->assemble(f.a);
    f.num->factorize();
    return f;
  }
};

TEST(Solve1d, TimingOnlyModeLeavesNoSideEffects) {
  const auto f = Fixture::make(60, 5);
  const auto res = run_solve_1d(*f.num, sim::MachineModel::cray_t3e(4));
  EXPECT_GT(res.seconds, 0.0);
  EXPECT_GT(res.total_task_seconds, 0.0);
}

TEST(Solve1d, SpeedupBoundedAndCommGrows) {
  const auto f = Fixture::make(200, 13);
  const auto m1 = sim::MachineModel::cray_t3e(1);
  const double t1 = run_solve_1d(*f.num, m1).seconds;
  double prev_comm = -1.0;
  for (const int p : {2, 4, 8}) {
    const auto m = sim::MachineModel::cray_t3e(p).with_grid({1, p});
    const auto res = run_solve_1d(*f.num, m);
    EXPECT_GT(res.seconds, t1 / p * 0.5) << "superlinear solve speedup?";
    EXPECT_GT(res.comm_bytes, prev_comm);
    prev_comm = res.comm_bytes;
  }
}

TEST(Solve1d, SolveFarCheaperThanFactorization) {
  // The paper's §2 remark, measured: triangular solves are a small
  // fraction of the elimination cost.
  const auto f = Fixture::make(150, 21);
  const auto m = sim::MachineModel::cray_t3e(1);
  const auto fl = f.num->stats().flops;
  const double factor_seconds = m.compute_seconds(
      static_cast<double>(fl.blas1), static_cast<double>(fl.blas2),
      static_cast<double>(fl.blas3));
  const double solve_seconds = run_solve_1d(*f.num, m).seconds;
  EXPECT_LT(solve_seconds, 0.35 * factor_seconds);
}

}  // namespace
}  // namespace sstar
