// Determinism and equivalence tests for the real multithreaded executor
// (exec/lu_real): parallel factors must be BITWISE-identical to the
// sequential factorization at every thread count and across repeated
// runs — the task graph's property-3 serialization makes every
// dependency-respecting execution perform the identical kernel sequence
// per column block.
#include <gtest/gtest.h>

#include <memory>

#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "core/task_graph.hpp"
#include "exec/lu_real.hpp"
#include "ordering/transversal.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "trace/trace.hpp"
#include "trace/validate.hpp"

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

  std::unique_ptr<SStarNumeric> sequential() const {
    auto num = std::make_unique<SStarNumeric>(*layout);
    num->assemble(a);
    num->factorize();
    return num;
  }
};

TEST(LuRealExec, BitwiseIdenticalAcrossThreadCounts) {
  const auto f = Fixture::make(150, 5, 17, 10, 4);
  const auto ref = f.sequential();
  const LuTaskGraph graph(*f.layout);

  for (const int nt : {1, 2, 4, 8}) {
    SStarNumeric num(*f.layout);
    num.assemble(f.a);
    const exec::ExecStats st = exec::factorize_parallel(graph, num, nt);
    EXPECT_EQ(st.threads, nt);
    EXPECT_EQ(st.tasks_run, graph.num_tasks());
    EXPECT_TRUE(exec::factors_bitwise_equal(*ref, num)) << nt << " threads";
    EXPECT_EQ(num.pivot_of_col(), ref->pivot_of_col());
    // Merged flop stats are sums of per-task counts: order-independent,
    // so they match sequential exactly too.
    EXPECT_EQ(num.stats().flops.blas1, ref->stats().flops.blas1);
    EXPECT_EQ(num.stats().flops.blas2, ref->stats().flops.blas2);
    EXPECT_EQ(num.stats().flops.blas3, ref->stats().flops.blas3);
    EXPECT_EQ(num.stats().off_diagonal_pivots,
              ref->stats().off_diagonal_pivots);
  }
}

TEST(LuRealExec, RepeatedRunsIdentical) {
  const auto f = Fixture::make(120, 4, 23, 8, 4);
  std::unique_ptr<SStarNumeric> first;
  for (int rep = 0; rep < 3; ++rep) {
    auto num = std::make_unique<SStarNumeric>(*f.layout);
    num->assemble(f.a);
    exec::factorize_parallel(*num, 4);
    if (!first) {
      first = std::move(num);
      continue;
    }
    EXPECT_TRUE(exec::factors_bitwise_equal(*first, *num)) << "rep " << rep;
  }
}

TEST(LuRealExec, SolveMatchesSequential) {
  const auto f = Fixture::make(90, 4, 31);
  const auto b = testing::random_vector(90, 7);
  const auto want = f.sequential()->solve(b);

  SStarNumeric num(*f.layout);
  num.assemble(f.a);
  exec::factorize_parallel(num, 4);
  const auto got = num.solve(b);
  for (int i = 0; i < 90; ++i) EXPECT_EQ(got[i], want[i]) << "i=" << i;
}

// Column block j's tasks are hinted to worker j mod threads; worker
// counts that do not divide the block count, or are not a power of two,
// wrap the hints unevenly and must still give the loop's bits.
TEST(LuRealExec, ColumnAffinityBitwiseAtUnevenThreadCounts) {
  const auto f = Fixture::make(100, 4, 41, 8, 4);
  const auto ref = f.sequential();
  const LuTaskGraph graph(*f.layout);
  for (const int nt : {3, 5, 6, 8}) {
    SStarNumeric num(*f.layout);
    num.assemble(f.a);
    const exec::ExecStats st = exec::factorize_parallel(graph, num, nt);
    EXPECT_EQ(st.threads, nt);
    EXPECT_TRUE(exec::factors_bitwise_equal(*ref, num)) << nt << " threads";
    EXPECT_EQ(num.stats().flops.total(), ref->stats().flops.total());
  }
}

TEST(LuRealExec, Run1DRealMatchesSequential) {
  const auto f = Fixture::make(110, 4, 47, 8, 4);
  const auto ref = f.sequential();
  for (const auto kind :
       {Schedule1DKind::kComputeAhead, Schedule1DKind::kGraph}) {
    const auto m = sim::MachineModel::cray_t3e(4);
    SStarNumeric num(*f.layout);
    num.assemble(f.a);
    const exec::ExecStats st = run_1d_real(*f.layout, m, kind, num, 4);
    EXPECT_GT(st.tasks_run, 0);
    EXPECT_TRUE(exec::factors_bitwise_equal(*ref, num));
  }
}

TEST(LuRealExec, Run2DRealMatchesSequential) {
  const auto f = Fixture::make(110, 4, 53, 8, 4);
  const auto ref = f.sequential();
  for (const bool async : {true, false}) {
    const auto m = sim::MachineModel::cray_t3e(8);
    SStarNumeric num(*f.layout);
    num.assemble(f.a);
    const exec::ExecStats st = run_2d_real(*f.layout, m, async, num, 4);
    EXPECT_GT(st.tasks_run, 0);
    EXPECT_TRUE(exec::factors_bitwise_equal(*ref, num))
        << (async ? "async" : "sync");
  }
}

// Tracing must be a pure observer of the work-stealing executor too:
// with a collector installed the factors stay bitwise-identical, and
// the kernel spans land on the worker lanes that ran them.
TEST(LuRealExec, TracingOnBitwiseIdentical) {
  const auto f = Fixture::make(120, 4, 29, 8, 4);
  const auto ref = f.sequential();
  const LuTaskGraph graph(*f.layout);

  SStarNumeric num(*f.layout);
  num.assemble(f.a);
  trace::TraceCollector collector;
  collector.install();
  const exec::ExecStats st = exec::factorize_parallel(graph, num, 4);
  collector.uninstall();
  const trace::Trace tr = collector.take();

  EXPECT_TRUE(exec::factors_bitwise_equal(*ref, num));
  EXPECT_EQ(num.pivot_of_col(), ref->pivot_of_col());
  // One Factor span per block; every span on a valid worker lane.
  int factor_spans = 0;
  for (const trace::TraceEvent& e : tr.events) {
    EXPECT_GE(e.lane, 0);
    EXPECT_LT(e.lane, st.threads);
    if (e.kind == trace::EventKind::kFactor) ++factor_spans;
  }
  EXPECT_EQ(factor_spans, f.layout->num_blocks());
  EXPECT_GT(tr.events.size(), 0u);
}

// One built program serves every consumer without a rebuild: the
// simulator prices it, the thread executor runs its kernels at 1 and 4
// threads, the message-passing ranks run them too (all bitwise equal to
// factorize()), and the validator accepts a traced thread run of it.
void expect_one_program_every_consumer(const Fixture& f,
                                       const sim::ParallelProgram& prog,
                                       const sim::MachineModel& m) {
  const auto ref = f.sequential();
  EXPECT_GT(sim::simulate(prog, m).makespan, 0.0);
  for (const int threads : {1, 4}) {
    SStarNumeric num(*f.layout);
    num.assemble(f.a);
    const exec::ExecStats st = exec::execute_program(prog, num, threads);
    EXPECT_GT(st.tasks_run, 0);
    EXPECT_TRUE(exec::factors_bitwise_equal(*ref, num))
        << threads << " thread(s)";
  }
  SStarNumeric mp(*f.layout);
  exec::execute_program_mp(prog, f.a, mp);
  EXPECT_TRUE(exec::factors_bitwise_equal(*ref, mp)) << "MP ranks";

  SStarNumeric traced(*f.layout);
  traced.assemble(f.a);
  trace::TraceCollector collector;
  collector.install();
  exec::execute_program(prog, traced, 4);
  collector.uninstall();
  const trace::ValidationReport report =
      trace::validate_trace(prog, *f.layout, m, collector.take());
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.measured_tasks, report.kernel_tasks);
  EXPECT_TRUE(exec::factors_bitwise_equal(*ref, traced)) << "traced run";
}

TEST(LuRealExec, OneProgramEveryConsumer1dComputeAhead) {
  const auto f = Fixture::make(110, 4, 67, 8, 4);
  const auto m = sim::MachineModel::cray_t3e(4);
  expect_one_program_every_consumer(
      f, build_1d_program(*f.layout, m, Schedule1DKind::kComputeAhead), m);
}

TEST(LuRealExec, OneProgramEveryConsumer1dGraph) {
  const auto f = Fixture::make(110, 4, 71, 8, 4);
  const auto m = sim::MachineModel::cray_t3e(4);
  expect_one_program_every_consumer(
      f, build_1d_program(*f.layout, m, Schedule1DKind::kGraph), m);
}

TEST(LuRealExec, OneProgramEveryConsumer2dAsync) {
  const auto f = Fixture::make(110, 4, 73, 8, 4);
  const auto m = sim::MachineModel::cray_t3e(8);
  expect_one_program_every_consumer(
      f, build_2d_program(*f.layout, m, /*async=*/true), m);
}

TEST(LuRealExec, OneProgramEveryConsumer2dSync) {
  const auto f = Fixture::make(110, 4, 79, 8, 4);
  const auto m = sim::MachineModel::cray_t3e(8);
  expect_one_program_every_consumer(
      f, build_2d_program(*f.layout, m, /*async=*/false), m);
}

TEST(LuRealExec, FactorsBitwiseEqualDetectsDifferences) {
  const auto f = Fixture::make(60, 3, 61, 6, 2);
  const auto x = f.sequential();
  const auto y = f.sequential();
  EXPECT_TRUE(exec::factors_bitwise_equal(*x, *y));
  // Perturb one stored value: must be detected.
  y->data().diag(0)[0] += 1.0;
  EXPECT_FALSE(exec::factors_bitwise_equal(*x, *y));
}

}  // namespace
}  // namespace sstar
