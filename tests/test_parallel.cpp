// Tests for the 1D and 2D parallel drivers: numeric equivalence with the
// sequential factorization, schedule sanity, Theorem 2 overlap bounds,
// and the paper's qualitative performance relationships.
#include <gtest/gtest.h>

#include <memory>

#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "core/task_graph.hpp"
#include "core/task_model.hpp"
#include "ordering/transversal.hpp"
#include "sched/list_schedule.hpp"
#include "solve/solver.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace sstar {
namespace {

struct Fixture {
  SparseMatrix a;
  StaticStructure s;
  std::unique_ptr<BlockLayout> layout;

  static Fixture make(int n, int extra, std::uint64_t seed, int mb = 8,
                      int r = 4) {
    Fixture f;
    f.a = make_zero_free_diagonal(testing::random_sparse(n, extra, seed));
    f.s = static_symbolic_factorization(f.a);
    auto part = amalgamate(f.s, find_supernodes(f.s, mb), r, mb);
    f.layout = std::make_unique<BlockLayout>(f.s, std::move(part));
    return f;
  }

  std::vector<double> sequential_factor_and_solve(
      const std::vector<double>& b) const {
    SStarNumeric num(*layout);
    num.assemble(a);
    num.factorize();
    return num.solve(b);
  }
};

TEST(TaskGraph, StructureMatchesPaperProperties) {
  const auto f = Fixture::make(60, 4, 11);
  const LuTaskGraph g(*f.layout);
  const int nb = f.layout->num_blocks();
  // One Factor per supernode; one Update per nonzero U block.
  int factors = 0, updates = 0;
  for (int t = 0; t < g.num_tasks(); ++t) {
    if (g.task(t).type == LuTask::Type::kFactor)
      ++factors;
    else
      ++updates;
  }
  EXPECT_EQ(factors, nb);
  std::int64_t u_blocks = 0;
  for (int k = 0; k < nb; ++k)
    u_blocks += static_cast<std::int64_t>(f.layout->u_blocks(k).size());
  EXPECT_EQ(updates, u_blocks);

  // Edges go forward in creation order (topological construction).
  for (const auto& e : g.edges()) EXPECT_LT(e.from, e.to);

  // Factor(k) -> Update(k, j) present for every update.
  for (int t = 0; t < g.num_tasks(); ++t) {
    if (g.task(t).type != LuTask::Type::kUpdate) continue;
    bool has_factor_pred = false;
    for (const int p : g.preds(t))
      has_factor_pred |= g.task(p).type == LuTask::Type::kFactor &&
                         g.task(p).k == g.task(t).k;
    EXPECT_TRUE(has_factor_pred);
  }
}

TEST(TaskModel, MatchesExecutedFlopsExactly) {
  // The analytic model must equal the kernel's own flop counters —
  // otherwise every simulated time in the benches is fiction.
  const auto f = Fixture::make(70, 4, 23, 10, 4);
  SStarNumeric num(*f.layout);
  num.assemble(f.a);
  num.factorize();
  const auto executed = num.stats().flops;
  const auto modeled = total_model_flops(*f.layout);
  EXPECT_EQ(executed.blas1, modeled.blas1);
  EXPECT_EQ(executed.blas2, modeled.blas2);
  EXPECT_EQ(executed.blas3, modeled.blas3);
}

struct DriverCase {
  int procs;
  int kind;  // 0 = 1D CA, 1 = 1D graph, 2 = 2D async, 3 = 2D sync
};

class ParallelDrivers : public ::testing::TestWithParam<DriverCase> {};

TEST_P(ParallelDrivers, NumericsIdenticalToSequential) {
  const auto cfg = GetParam();
  const auto f = Fixture::make(90, 4, 31);
  const auto b = testing::random_vector(90, 7);
  const auto want = f.sequential_factor_and_solve(b);

  auto m = sim::MachineModel::cray_t3e(cfg.procs);
  SStarNumeric num(*f.layout);
  num.assemble(f.a);
  exec::ExecStats res;
  switch (cfg.kind) {
    case 0:
      res = run_1d_real(*f.layout, m, Schedule1DKind::kComputeAhead, num, 1);
      break;
    case 1:
      res = run_1d_real(*f.layout, m, Schedule1DKind::kGraph, num, 1);
      break;
    case 2:
      res = run_2d_real(*f.layout, m, /*async=*/true, num, 1);
      break;
    default:
      res = run_2d_real(*f.layout, m, /*async=*/false, num, 1);
      break;
  }
  EXPECT_GT(res.seconds, 0.0);
  // Bitwise identical: same kernels in a dependency-respecting order.
  const auto got = num.solve(b);
  for (int i = 0; i < 90; ++i) EXPECT_EQ(got[i], want[i]) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ParallelDrivers,
    ::testing::Values(DriverCase{2, 0}, DriverCase{4, 0}, DriverCase{7, 0},
                      DriverCase{2, 1}, DriverCase{4, 1}, DriverCase{8, 1},
                      DriverCase{2, 2}, DriverCase{8, 2}, DriverCase{32, 2},
                      DriverCase{8, 3}, DriverCase{32, 3}));

TEST(Parallel1D, SpeedupOverOneProcAndBounds) {
  const auto f = Fixture::make(150, 5, 3, 12, 4);
  const auto m1 = sim::MachineModel::cray_t3e(1);
  const auto t1 =
      run_1d(*f.layout, m1, Schedule1DKind::kComputeAhead).seconds;
  double prev = t1;
  for (const int p : {2, 4, 8}) {
    const auto mp = sim::MachineModel::cray_t3e(p);
    const auto tp =
        run_1d(*f.layout, mp, Schedule1DKind::kComputeAhead).seconds;
    EXPECT_LT(tp, prev * 1.05) << "time should not grow much with procs";
    EXPECT_GT(tp, t1 / p * 0.9) << "speedup cannot exceed p";
    prev = tp;
  }
}

TEST(Parallel1D, GraphScheduleBeatsComputeAheadOnManyProcs) {
  // §6.2.2 / Fig. 16: graph scheduling wins for larger processor counts.
  const auto f = Fixture::make(200, 5, 13, 10, 4);
  const auto m = sim::MachineModel::cray_t3d(16);
  const double ca =
      run_1d(*f.layout, m, Schedule1DKind::kComputeAhead).seconds;
  const double gs = run_1d(*f.layout, m, Schedule1DKind::kGraph).seconds;
  EXPECT_LT(gs, ca * 1.02) << "graph schedule should be competitive or better";
}

TEST(Parallel2D, AsyncNoSlowerThanSync) {
  // §6.3.1 / Table 7: removing the per-stage barrier helps.
  const auto f = Fixture::make(160, 5, 17, 10, 4);
  for (const int p : {4, 8, 16}) {
    const auto m = sim::MachineModel::cray_t3e(p);
    const double as = run_2d(*f.layout, m, true).seconds;
    const double sy = run_2d(*f.layout, m, false).seconds;
    EXPECT_LE(as, sy * 1.001) << "p=" << p;
  }
}

TEST(Parallel2D, Theorem2OverlapBounds) {
  // Overlap degree <= p_c overall and <= min(p_r - 1, p_c) within a
  // processor column — with a +1 observational allowance because the
  // measured quantity includes the compute-ahead Update(k, k+1) slice
  // that the paper counts as part of stage k+1's Factor.
  const auto f = Fixture::make(200, 5, 29, 8, 4);
  for (const int p : {8, 16, 32}) {
    const auto m = sim::MachineModel::cray_t3e(p);
    const auto res = run_2d(*f.layout, m, true);
    EXPECT_LE(res.overlap_all, m.grid.cols + 1)
        << "p=" << p << " grid " << m.grid.rows << "x" << m.grid.cols;
    EXPECT_LE(res.overlap_column,
              std::min(m.grid.rows - 1, m.grid.cols) + 1)
        << "p=" << p;
  }
}

TEST(Parallel2D, SyncHasNoUpdateOverlapAcrossStages) {
  const auto f = Fixture::make(120, 4, 37, 8, 4);
  const auto m = sim::MachineModel::cray_t3e(8);
  const auto res = run_2d(*f.layout, m, /*async=*/false);
  // With a barrier each step, updates of different stages cannot overlap
  // ... except the compute-ahead Update(k, k+1) which is emitted before
  // the barrier; allow spread 1.
  EXPECT_LE(res.overlap_all, 1);
}

TEST(Parallel, LoadBalance2DBetterThan1DOnManyProcs) {
  // Fig. 18: the 2D mapping spreads work better.
  const auto f = Fixture::make(220, 5, 41, 8, 4);
  const auto m2 = sim::MachineModel::cray_t3e(16);
  const auto m1 = m2.with_grid({1, 16});
  const auto r1 = run_1d(*f.layout, m1, Schedule1DKind::kComputeAhead);
  const auto r2 = run_2d(*f.layout, m2, true);
  EXPECT_GT(r2.load_balance, r1.load_balance * 0.8);
}

TEST(Parallel, BufferHighWaterWithinPaperBound) {
  // §5.2: buffer space < n * BSIZE * s * (p_c/p_r + p_r/p_c) * 8 bytes
  // modulo small constants; sanity-check the measured residency is not
  // absurdly larger than the whole factor storage.
  const auto f = Fixture::make(200, 5, 43, 8, 4);
  const auto m = sim::MachineModel::cray_t3e(16);
  const auto res = run_2d(*f.layout, m, true);
  const double store_bytes = 8.0 * f.layout->stored_entries();
  EXPECT_LT(res.buffer_high_water, store_bytes);
}

TEST(Parallel, CommVolumeGrowsWithProcs) {
  const auto f = Fixture::make(150, 4, 47, 8, 4);
  double prev = 0.0;
  for (const int p : {2, 4, 8, 16}) {
    const auto m = sim::MachineModel::cray_t3e(p);
    const auto res = run_2d(*f.layout, m, true);
    EXPECT_GE(res.comm_bytes, prev * 0.8) << "p=" << p;
    prev = res.comm_bytes;
  }
}

TEST(Parallel, GanttCaptured) {
  const auto f = Fixture::make(40, 3, 53, 6, 0);
  const auto m = sim::MachineModel::cray_t3e(4);
  const auto res = run_1d(*f.layout, m, Schedule1DKind::kGraph,
                          /*capture_gantt=*/true);
  EXPECT_NE(res.gantt.find("P0"), std::string::npos);
  EXPECT_NE(res.gantt.find("P3"), std::string::npos);
}

}  // namespace
}  // namespace sstar
