// Structural tests of the 2D SPMD program builder: task counts, barrier
// behaviour, pathological grids, and message scaling.
#include <gtest/gtest.h>

#include "core/lu_2d.hpp"
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

  static Fixture make(int n, std::uint64_t seed) {
    Fixture f;
    f.a = make_zero_free_diagonal(testing::random_sparse(n, 4, seed));
    f.s = static_symbolic_factorization(f.a);
    auto part = amalgamate(f.s, find_supernodes(f.s, 8), 4, 8);
    f.layout = std::make_unique<BlockLayout>(f.s, std::move(part));
    return f;
  }
};

TEST(Lu2dStructure, TaskCountFollowsFormula) {
  const auto f = Fixture::make(80, 1);
  const int nb = f.layout->num_blocks();
  const auto m = sim::MachineModel::cray_t3e(8);  // 2 x 4 grid
  const auto prog = build_2d_program(*f.layout, m, true);
  // Per step k < nb-1: SX + SW + UF + UR on every proc (4 * P) plus the
  // next step's factor tasks (2 * p_r + 1). Step 0 adds its own factor
  // tasks.
  const int p = m.processors;
  const int pr = m.grid.rows;
  const std::size_t want =
      static_cast<std::size_t>(nb - 1) * (4 * p + 2 * pr + 1) +
      (2 * pr + 1);
  EXPECT_EQ(prog.num_tasks(), want);
}

TEST(Lu2dStructure, SyncAddsOneBarrierPerStep) {
  const auto f = Fixture::make(60, 2);
  const auto m = sim::MachineModel::cray_t3e(8);
  const auto async_prog = build_2d_program(*f.layout, m, true);
  const auto sync_prog = build_2d_program(*f.layout, m, false);
  const int nb = f.layout->num_blocks();
  EXPECT_EQ(sync_prog.num_tasks(),
            async_prog.num_tasks() + static_cast<std::size_t>(nb - 1));
}

TEST(Lu2dStructure, PathologicalGridsStillCorrect) {
  const auto f = Fixture::make(70, 3);
  const auto b = testing::random_vector(70, 5);
  SStarNumeric seq(*f.layout);
  seq.assemble(f.a);
  seq.factorize();
  const auto want = seq.solve(b);

  for (const sim::Grid g :
       {sim::Grid{1, 8}, sim::Grid{8, 1}, sim::Grid{3, 2}, sim::Grid{1, 1},
        sim::Grid{5, 1}}) {
    const auto m =
        sim::MachineModel::cray_t3e(g.size()).with_grid(g);
    SStarNumeric num(*f.layout);
    num.assemble(f.a);
    const auto res = run_2d_real(*f.layout, m, true, num, 1);
    EXPECT_GT(res.seconds, 0.0);
    const auto got = num.solve(b);
    for (int i = 0; i < 70; ++i)
      ASSERT_EQ(got[i], want[i])
          << "grid " << g.rows << "x" << g.cols << " i=" << i;
  }
}

TEST(Lu2dStructure, MessageCountGrowsWithGrid) {
  const auto f = Fixture::make(90, 4);
  std::int64_t prev = 0;
  for (const int p : {2, 8, 32}) {
    const auto m = sim::MachineModel::cray_t3e(p);
    const auto res = run_2d(*f.layout, m, true);
    EXPECT_GT(res.messages, prev) << "p=" << p;
    prev = res.messages;
  }
}

TEST(Lu2dStructure, SequentialGridMatchesSequentialTimeScale) {
  // On a 1x1 grid the simulated parallel time should approximate the
  // modeled sequential time (plus per-task overheads), never less.
  const auto f = Fixture::make(80, 5);
  const auto m1 = sim::MachineModel::cray_t3e(1);
  const auto res = run_2d(*f.layout, m1, true);
  EXPECT_GT(res.seconds, 0.0);
  EXPECT_NEAR(res.load_balance, 1.0, 1e-9);
  EXPECT_EQ(res.comm_bytes, 0.0);
}

}  // namespace
}  // namespace sstar
