// Pivot-aware cost model of the 2D SPMD program, the simulated-schedule
// trace exporter, and the DAG critical-path analyzer behind the
// threshold-pivoting ablation (ISSUE 9, bench/bench_pivot).
//
// Contracts under test:
//   * build_2d_program with realized off-diagonal interchange counts
//     equal to width(k) per block reproduces the historic worst-case
//     program EXACTLY (same per-task seconds, same simulated makespan),
//     so the charging change cannot perturb any existing consumer;
//   * interchange-free counts strictly shorten the simulated schedule
//     (the winner-subrow broadcast rounds and the SW subrow exchanges
//     are the only terms that move);
//   * offdiag_interchanges_per_block agrees with the numeric's pivot
//     vector and stats;
//   * analysis::simulated_trace renders the simulated schedule as a
//     trace whose realized critical path has the simulation's makespan;
//   * analysis::realized_dag_critical_path finds the longest
//     measured-weight path through the task DAG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "analysis/critical_path.hpp"
#include "analysis/sim_trace.hpp"
#include "core/lu_2d.hpp"
#include "core/pivot.hpp"
#include "core/task_graph.hpp"
#include "ordering/transversal.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "trace/analyze.hpp"
#include "util/check.hpp"

namespace sstar {
namespace {

struct Fixture {
  SparseMatrix a;
  StaticStructure s;
  std::unique_ptr<BlockLayout> layout;

  static Fixture make(int n, int extra, std::uint64_t seed, int mb = 8,
                      int r = 4, double weak = 0.4) {
    Fixture f;
    f.a = make_zero_free_diagonal(
        testing::random_sparse(n, extra, seed, weak));
    f.s = static_symbolic_factorization(f.a);
    auto part = amalgamate(f.s, find_supernodes(f.s, mb), r, mb);
    f.layout = std::make_unique<BlockLayout>(f.s, std::move(part));
    return f;
  }
};

std::vector<int> width_counts(const BlockLayout& lay) {
  std::vector<int> counts(static_cast<std::size_t>(lay.num_blocks()));
  for (int k = 0; k < lay.num_blocks(); ++k)
    counts[static_cast<std::size_t>(k)] = lay.width(k);
  return counts;
}

// A grid with p_r > 1 so every pivot-latency term is live.
sim::MachineModel machine_4x2() {
  sim::MachineModel m = sim::MachineModel::cray_t3d(8);
  m.grid = {4, 2};
  return m;
}

TEST(PivotSim, WorstCaseCountsReproduceTheHistoricProgram) {
  const Fixture f = Fixture::make(96, 3, testing::test_seed(11));
  const sim::MachineModel m = machine_4x2();

  const sim::ParallelProgram historic =
      build_2d_program(*f.layout, m, /*async=*/true);
  const std::vector<int> full = width_counts(*f.layout);
  const sim::ParallelProgram charged =
      build_2d_program(*f.layout, m, /*async=*/true, &full);

  ASSERT_EQ(historic.num_tasks(), charged.num_tasks());
  for (std::size_t t = 0; t < historic.num_tasks(); ++t) {
    EXPECT_DOUBLE_EQ(historic.task(t).seconds, charged.task(t).seconds)
        << historic.task(t).label;
  }
  ASSERT_EQ(historic.messages().size(), charged.messages().size());
  for (std::size_t e = 0; e < historic.messages().size(); ++e)
    EXPECT_DOUBLE_EQ(historic.messages()[e].bytes,
                     charged.messages()[e].bytes);

  const sim::SimulationResult r0 = simulate(historic, m);
  const sim::SimulationResult r1 = simulate(charged, m);
  EXPECT_DOUBLE_EQ(r0.makespan, r1.makespan);
}

TEST(PivotSim, InterchangeFreeCountsShortenTheSimulatedSchedule) {
  const Fixture f = Fixture::make(96, 3, testing::test_seed(12));
  const sim::MachineModel m = machine_4x2();

  const std::vector<int> none(
      static_cast<std::size_t>(f.layout->num_blocks()), 0);
  const sim::ParallelProgram worst =
      build_2d_program(*f.layout, m, /*async=*/true);
  const sim::ParallelProgram free =
      build_2d_program(*f.layout, m, /*async=*/true, &none);

  const sim::SimulationResult rw = simulate(worst, m);
  const sim::SimulationResult rf = simulate(free, m);
  EXPECT_LT(rf.makespan, rw.makespan);
  // The subrow-exchange messages disappear entirely.
  EXPECT_LT(rf.message_count, rw.message_count);
  EXPECT_LT(rf.comm_volume_bytes, rw.comm_volume_bytes);
}

TEST(PivotSim, CountsOutOfRangeAreRejected) {
  const Fixture f = Fixture::make(48, 3, testing::test_seed(13));
  const sim::MachineModel m = machine_4x2();

  std::vector<int> bad(static_cast<std::size_t>(f.layout->num_blocks()), 0);
  bad.front() = f.layout->width(0) + 1;
  EXPECT_THROW(build_2d_program(*f.layout, m, true, &bad),
               CheckError);
  bad.front() = -1;
  EXPECT_THROW(build_2d_program(*f.layout, m, true, &bad),
               CheckError);
  bad.pop_back();
  EXPECT_THROW(build_2d_program(*f.layout, m, true, &bad),
               CheckError);
}

TEST(PivotSim, RealizedCountsAgreeWithThePivotVector) {
  const Fixture f = Fixture::make(120, 4, testing::test_seed(14), 8, 4,
                                  /*weak=*/0.8);
  PivotPolicy relaxed;
  relaxed.threshold = 0.1;
  SStarNumeric num(*f.layout);
  num.set_pivot_policy(relaxed);
  num.assemble(f.a);
  num.factorize();

  const std::vector<int> counts =
      offdiag_interchanges_per_block(*f.layout, num);
  ASSERT_EQ(static_cast<int>(counts.size()), f.layout->num_blocks());
  int total = 0;
  for (int k = 0; k < f.layout->num_blocks(); ++k) {
    EXPECT_GE(counts[static_cast<std::size_t>(k)], 0);
    EXPECT_LE(counts[static_cast<std::size_t>(k)], f.layout->width(k));
    total += counts[static_cast<std::size_t>(k)];
  }
  EXPECT_EQ(total, num.stats().off_diagonal_pivots);
}

TEST(PivotSim, SimulatedTraceCarriesTheScheduleToTheTraceLayer) {
  const Fixture f = Fixture::make(96, 3, testing::test_seed(15));
  const sim::MachineModel m = machine_4x2();

  const sim::ParallelProgram prog =
      build_2d_program(*f.layout, m, /*async=*/true);
  const sim::SimulationResult res = simulate(prog, m);
  const trace::Trace tr = analysis::simulated_trace(prog, res);

  EXPECT_EQ(tr.num_lanes, m.processors);
  ASSERT_FALSE(tr.events.empty());
  double last = 0.0;
  bool has_factor = false, has_update = false;
  for (const trace::TraceEvent& e : tr.events) {
    EXPECT_GE(e.t0, 0.0);
    EXPECT_LE(e.t0, e.t1);
    EXPECT_GE(e.lane, 0);
    EXPECT_LT(e.lane, tr.num_lanes);
    last = std::max(last, e.t1);
    has_factor = has_factor || e.kind == trace::EventKind::kFactor;
    has_update = has_update || e.kind == trace::EventKind::kUpdate;
  }
  EXPECT_TRUE(has_factor);
  EXPECT_TRUE(has_update);
  EXPECT_DOUBLE_EQ(last, res.makespan);

  // The trace layer's own analyzer sees the simulated schedule.
  const trace::CriticalPath cp = trace::realized_critical_path(tr);
  EXPECT_DOUBLE_EQ(cp.makespan, res.makespan);
}

TEST(PivotDagPath, LongestMeasuredPathThroughTheTaskGraph) {
  const Fixture f = Fixture::make(48, 3, testing::test_seed(16));
  const LuTaskGraph graph(*f.layout);
  ASSERT_GE(f.layout->num_blocks(), 2);
  // The chain under test: F(k0) -> SW+U(k0, k0+1) -> F(k0+1), at the
  // first stage whose compute-ahead U block is structurally present.
  int k0 = -1;
  for (int k = 0; k + 1 < f.layout->num_blocks() && k0 < 0; ++k)
    if (graph.update_task(k, k + 1) >= 0) k0 = k;
  ASSERT_GE(k0, 0) << "fixture must have a compute-ahead U block";

  auto span = [](trace::EventKind kind, int k, int j, double t0,
                 double t1) {
    trace::TraceEvent e;
    e.kind = kind;
    e.k = k;
    e.j = j;
    e.t0 = t0;
    e.t1 = t1;
    return e;
  };

  // Weight only that chain; every other task weighs zero, so the
  // longest path is exactly the chain's measured time. Scale and update
  // spans of (k0, k0+1) both land on the combined task; solve spans and
  // out-of-range stages are ignored.
  trace::Trace tr;
  tr.num_lanes = 1;
  tr.events.push_back(span(trace::EventKind::kFactor, k0, k0, 0.0, 3.0));
  tr.events.push_back(
      span(trace::EventKind::kScale, k0, k0 + 1, 3.0, 3.5));
  tr.events.push_back(
      span(trace::EventKind::kUpdate, k0, k0 + 1, 3.5, 5.5));
  tr.events.push_back(
      span(trace::EventKind::kFactor, k0 + 1, k0 + 1, 5.5, 6.5));
  tr.events.push_back(span(trace::EventKind::kFSolve, 0, -1, 6.5, 9.9));
  tr.events.push_back(
      span(trace::EventKind::kFactor, f.layout->num_blocks() + 7, 0, 0.0,
           50.0));

  const analysis::DagCriticalPath cp =
      analysis::realized_dag_critical_path(tr, graph);
  EXPECT_DOUBLE_EQ(cp.seconds, 6.5);
  EXPECT_DOUBLE_EQ(cp.factor_seconds, 4.0);
  EXPECT_DOUBLE_EQ(cp.scale_seconds, 0.5);
  EXPECT_DOUBLE_EQ(cp.update_seconds, 2.0);
  EXPECT_DOUBLE_EQ(cp.total_seconds, 6.5);
  // The path visits the weighted chain (possibly via zero-weight
  // tasks in between).
  ASSERT_FALSE(cp.tasks.empty());
  EXPECT_NE(std::find(cp.tasks.begin(), cp.tasks.end(),
                      graph.factor_task(k0)),
            cp.tasks.end());
  EXPECT_NE(std::find(cp.tasks.begin(), cp.tasks.end(),
                      graph.update_task(k0, k0 + 1)),
            cp.tasks.end());
  EXPECT_NE(std::find(cp.tasks.begin(), cp.tasks.end(),
                      graph.factor_task(k0 + 1)),
            cp.tasks.end());
}

TEST(PivotDagPath, MeasuredTraceOfARealRunIsAccepted) {
  const Fixture f = Fixture::make(96, 3, testing::test_seed(17));
  const LuTaskGraph graph(*f.layout);

  SStarNumeric num(*f.layout);
  num.assemble(f.a);
  trace::TraceCollector collector;
  collector.install();
  num.factorize();
  collector.uninstall();
  const trace::Trace tr = collector.take();

  const analysis::DagCriticalPath cp =
      analysis::realized_dag_critical_path(tr, graph);
  EXPECT_GT(cp.seconds, 0.0);
  EXPECT_GE(cp.total_seconds, cp.seconds);
  // Path attribution adds up to the path length.
  EXPECT_NEAR(cp.factor_seconds + cp.scale_seconds + cp.update_seconds,
              cp.seconds, 1e-12 * std::max(1.0, cp.seconds));
  EXPECT_FALSE(cp.tasks.empty());
}

}  // namespace
}  // namespace sstar
