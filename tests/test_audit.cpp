// Dependence auditor tests (analysis/audit).
//
// Positive direction: the kernel-level LU task DAG and every built
// 1D/2D SPMD program must pass the static audit on the paper's example
// matrices and on random problems — i.e. the DAG provably orders every
// pair of conflicting block accesses. Negative direction: deleting a
// DAG edge whose endpoints conflict directly (every property-1
// Factor(k) -> Update(k, j) edge qualifies) must be flagged with exactly
// that task pair, and synthetic recorded events outside a task's
// declared set (or unordered between tasks) must be caught by the
// dynamic checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/audit.hpp"
#include "analysis/reachability.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "core/task_graph.hpp"
#include "exec/lu_real.hpp"
#include "ordering/transversal.hpp"
#include "sched/list_schedule.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace sstar {
namespace {

std::unique_ptr<BlockLayout> make_layout(const SparseMatrix& a, int mb = 8,
                                         int r = 4) {
  const SparseMatrix zf = make_zero_free_diagonal(a);
  StaticStructure s = static_symbolic_factorization(zf);
  auto part = amalgamate(s, find_supernodes(s, mb), r, mb);
  return std::make_unique<BlockLayout>(std::move(s), std::move(part));
}

// True when the declared access sets of tasks a and b conflict directly
// (same resource, at least one write) — the condition under which
// deleting the edge a -> b must surface (a, b) itself as a violation.
bool sets_conflict(const LuTaskGraph& graph, int a, int b) {
  const auto sa = analysis::task_access_set(graph, a);
  const auto sb = analysis::task_access_set(graph, b);
  for (const analysis::BlockAccess& x : sa)
    for (const analysis::BlockAccess& y : sb)
      if (x.block == y.block && (x.access == analysis::Access::kWrite ||
                                 y.access == analysis::Access::kWrite))
        return true;
  return false;
}

TEST(Audit, PaperExamplesPass) {
  for (const SparseMatrix& a :
       {testing::paper_fig2_matrix(), testing::paper_fig4_matrix()}) {
    const auto layout = make_layout(a, 2, 0);
    const LuTaskGraph graph(*layout);
    const analysis::AuditReport report = analysis::audit_task_graph(graph);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.num_tasks, graph.num_tasks());
    EXPECT_GT(report.pairs_checked, 0);
  }
}

TEST(Audit, RandomProblemsPass) {
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    const auto layout =
        make_layout(testing::random_sparse(120, 5, seed), 8, 4);
    const LuTaskGraph graph(*layout);
    const analysis::AuditReport report = analysis::audit_task_graph(graph);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.summary();
  }
}

// Every edge whose endpoints conflict directly is load-bearing at the
// access-set level: with it deleted, no other path can order the pair
// (edges go strictly forward in creation order, and reachability is the
// transitive closure of the remaining edges minus exactly this one ...
// unless a parallel path exists). We therefore assert the weaker but
// exact property the auditor guarantees: after deleting such an edge,
// either the audit still passes because a parallel ordering path exists,
// or the report names the deleted pair. For property-1 Factor->Update
// edges no parallel path ever exists, so those must ALWAYS be flagged —
// checked separately below.
TEST(Audit, DeletedConflictingEdgeIsFlaggedOrCovered) {
  const auto layout = make_layout(testing::random_sparse(90, 4, 3), 8, 4);
  const LuTaskGraph graph(*layout);
  const std::vector<LuTaskEdge> all = graph.edges();

  int flagged = 0, covered = 0;
  for (std::size_t e = 0; e < all.size(); ++e) {
    if (!sets_conflict(graph, all[e].from, all[e].to)) continue;
    std::vector<LuTaskEdge> edges = all;
    edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(e));
    const analysis::AuditReport report =
        analysis::audit_task_graph(graph, edges);
    bool names_pair = false;
    for (const analysis::AuditViolation& v : report.violations)
      names_pair |= v.task_a == all[e].from && v.task_b == all[e].to;
    if (report.ok()) {
      ++covered;  // a parallel ordering path exists; deletion is benign
    } else {
      EXPECT_TRUE(names_pair)
          << "edge " << all[e].from << " -> " << all[e].to
          << " deleted; audit failed but did not name the pair: "
          << report.summary();
      ++flagged;
    }
  }
  EXPECT_GT(flagged, 0);
  SUCCEED() << flagged << " flagged, " << covered << " covered";
}

// Property-1 edges Factor(k) -> Update(k, j): the update reads the
// pivot sequence and diagonal block Factor writes, and no alternative
// path orders the pair. Deleting a RANDOM one must produce a precise
// diagnostic naming exactly that task pair.
TEST(Audit, DeletedFactorUpdateEdgePreciselyDiagnosed) {
  const auto layout = make_layout(testing::random_sparse(100, 5, 11), 8, 4);
  const LuTaskGraph graph(*layout);
  const std::vector<LuTaskEdge> all = graph.edges();

  std::vector<std::size_t> prop1;
  for (std::size_t e = 0; e < all.size(); ++e) {
    const LuTask& from = graph.task(all[e].from);
    const LuTask& to = graph.task(all[e].to);
    if (from.type == LuTask::Type::kFactor &&
        to.type == LuTask::Type::kUpdate && from.k == to.k)
      prop1.push_back(e);
  }
  ASSERT_FALSE(prop1.empty());

  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t e = prop1[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(prop1.size()) - 1))];
    std::vector<LuTaskEdge> edges = all;
    edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(e));
    const analysis::AuditReport report =
        analysis::audit_task_graph(graph, edges);
    EXPECT_FALSE(report.ok());
    bool found = false;
    for (const analysis::AuditViolation& v : report.violations) {
      if (v.task_a == all[e].from && v.task_b == all[e].to) {
        found = true;
        // The diagnostic must carry the exact block coordinates and a
        // human-readable message naming both tasks.
        EXPECT_TRUE(v.block.j == graph.task(all[e].from).k ||
                    v.block.is_pivot_seq());
        EXPECT_NE(v.message().find(v.label_a), std::string::npos);
        EXPECT_NE(v.message().find(v.label_b), std::string::npos);
      }
    }
    EXPECT_TRUE(found) << "deleted edge " << all[e].from << " -> "
                       << all[e].to << " not flagged";
  }
}

TEST(Audit, BuiltProgramsPass) {
  for (const std::uint64_t seed : {2u, 5u}) {
    const auto layout =
        make_layout(testing::random_sparse(80, 4, seed), 8, 4);
    const LuTaskGraph graph(*layout);
    for (const int procs : {2, 4}) {
      const sim::MachineModel m = sim::MachineModel::cray_t3e(procs);
      for (const auto kind :
           {Schedule1DKind::kComputeAhead, Schedule1DKind::kGraph}) {
        const sched::Schedule1D schedule =
            kind == Schedule1DKind::kComputeAhead
                ? sched::compute_ahead_schedule(graph, procs)
                : sched::graph_schedule(graph, m);
        const sim::ParallelProgram prog =
            build_1d_program(graph, schedule, m);
        const analysis::AuditReport report =
            analysis::audit_program(prog, *layout);
        EXPECT_TRUE(report.ok())
            << "1D seed=" << seed << " procs=" << procs << ": "
            << report.summary();
      }
      for (const bool async : {true, false}) {
        const sim::ParallelProgram prog =
            build_2d_program(*layout, m, async);
        const analysis::AuditReport report =
            analysis::audit_program(prog, *layout);
        EXPECT_TRUE(report.ok())
            << "2D async=" << async << " seed=" << seed
            << " procs=" << procs << ": " << report.summary();
      }
    }
  }
}

// Offline checker, fed synthetic events: an access outside the task's
// declared set must be reported as undeclared, and two conflicting
// recorded accesses from unordered tasks must be reported as unordered
// even when both tasks under-declared them.
TEST(Audit, DynamicCheckerCatchesUndeclaredAndUnordered) {
  const auto layout = make_layout(testing::random_sparse(80, 4, 13), 8, 4);
  const LuTaskGraph graph(*layout);

  // Find two Update tasks of the same stage k targeting different
  // columns: they are unordered (no path either way).
  int ta = -1, tb = -1;
  for (int t = 0; t < graph.num_tasks() && ta < 0; ++t) {
    if (graph.task(t).type != LuTask::Type::kUpdate) continue;
    for (int u = t + 1; u < graph.num_tasks(); ++u) {
      if (graph.task(u).type == LuTask::Type::kUpdate &&
          graph.task(u).k == graph.task(t).k &&
          graph.task(u).j != graph.task(t).j) {
        ta = t;
        tb = u;
        break;
      }
    }
  }
  ASSERT_GE(ta, 0) << "fixture too small: no sibling updates";

  // A block neither task declares. Coordinates far outside the grid are
  // fine — the checker compares against declared sets, not the layout.
  const analysis::BlockCoord bogus{layout->num_blocks() + 3,
                                   layout->num_blocks() + 7};
  const std::vector<analysis::AccessEvent> events = {
      {ta, bogus, analysis::Access::kWrite},
      {tb, bogus, analysis::Access::kWrite},
  };
  const analysis::DynamicAuditReport report =
      analysis::check_recorded_accesses(graph, events);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.undeclared.size(), 2u);
  ASSERT_EQ(report.unordered.size(), 1u);
  EXPECT_EQ(report.unordered[0].task_a, ta);
  EXPECT_EQ(report.unordered[0].task_b, tb);
  EXPECT_EQ(report.unordered[0].block, bogus);

  // Sanity: events matching the declared sets of ordered tasks pass.
  const int f0 = graph.factor_task(0);
  std::vector<analysis::AccessEvent> good;
  for (const analysis::BlockAccess& ba :
       analysis::task_access_set(graph, f0))
    good.push_back({f0, ba.block, ba.access});
  const analysis::DynamicAuditReport ok_report =
      analysis::check_recorded_accesses(graph, good);
  EXPECT_TRUE(ok_report.ok()) << ok_report.summary();
}

// A closure over a subset of target nodes answers every target pair as
// the closure over all nodes does, whatever the targets' order, though
// its paths run through nodes that keep no row.
TEST(Audit, ReachabilityOverTargetsMatchesFullClosure) {
  Rng rng(29);
  const int n = 300;
  std::vector<std::pair<int, int>> edges;
  for (int from = 0; from < n; ++from)
    for (int e = 0; e < 3; ++e)
      if (from + 1 < n)
        edges.push_back(
            {from, rng.uniform_int(from + 1, std::min(n - 1, from + 40))});
  // Reverse the ids so the targets are neither a prefix nor sorted.
  std::vector<int> targets;
  for (int t = n - 1; t >= 0; t -= 7) targets.push_back(t);
  const analysis::Reachability full(n, edges);
  const analysis::Reachability part(n, edges, targets);
  int ordered_pairs = 0;
  for (const int a : targets)
    for (const int b : targets) {
      EXPECT_EQ(part.reaches(a, b), full.reaches(a, b)) << a << " -> " << b;
      ordered_pairs += full.reaches(a, b) ? 1 : 0;
    }
  EXPECT_GT(ordered_pairs, 0);
  EXPECT_THROW(analysis::Reachability(n, edges, {3, 3}), CheckError);
  EXPECT_THROW(analysis::Reachability(n, edges, {n}), CheckError);
}

#ifdef SSTAR_AUDIT_ENABLED
// End-to-end dynamic audit: run the real multithreaded factorization
// with recording on; every recorded access must fall inside its task's
// declared set and the ordering check over real accesses must pass.
TEST(Audit, DynamicEndToEndRealExecution) {
  const SparseMatrix a =
      make_zero_free_diagonal(testing::random_sparse(120, 5, 17));
  const auto layout = make_layout(a, 8, 4);
  const LuTaskGraph graph(*layout);

  analysis::AccessLog log;
  log.install();
  SStarNumeric num(*layout);
  num.assemble(a);
  exec::factorize_parallel(graph, num, 4);
  log.uninstall();

  const std::vector<analysis::AccessEvent> events = log.take_events();
  ASSERT_FALSE(events.empty());
  const analysis::DynamicAuditReport report =
      analysis::check_recorded_accesses(graph, events);
  EXPECT_TRUE(report.ok()) << report.summary();
}
// End-to-end dynamic audit over the MESSAGE-PASSING runtime: every
// kernel runs inside a rank thread against a private replica, tagged
// with its program task id; the recorded access stream must still fall
// inside the declared sets and be fully ordered by the program's
// dependence structure — i.e. the distributed execution provably
// performs the same block accesses the DAG promises. Received factor
// panels are applied by raw copy (comm/serialize) and record no events:
// the message itself is the ordering.
TEST(Audit, DynamicEndToEndMessagePassing) {
  const SparseMatrix a =
      make_zero_free_diagonal(testing::random_sparse(110, 5, 29));
  const auto layout = make_layout(a, 8, 4);
  const LuTaskGraph graph(*layout);

  for (const int ranks : {2, 4}) {
    const sim::MachineModel m = sim::MachineModel::cray_t3e(ranks);
    const sched::Schedule1D schedule =
        sched::compute_ahead_schedule(graph, ranks);
    const sim::ParallelProgram prog =
        build_1d_program(graph, schedule, m);

    analysis::AccessLog log;
    log.install();
    SStarNumeric result(*layout);
    exec::execute_program_mp(prog, a, result);
    log.uninstall();

    const std::vector<analysis::AccessEvent> events = log.take_events();
    ASSERT_FALSE(events.empty());
    const analysis::DynamicAuditReport report =
        analysis::check_recorded_accesses(prog, *layout, events);
    EXPECT_TRUE(report.ok()) << ranks << " ranks: " << report.summary();

    // The audited run still factors correctly.
    SStarNumeric ref(*layout);
    ref.assemble(a);
    ref.factorize();
    EXPECT_TRUE(exec::factors_bitwise_equal(ref, result));
  }

  // 2D program, same property.
  const sim::MachineModel m = sim::MachineModel::cray_t3e(4);
  const sim::ParallelProgram prog2d =
      build_2d_program(*layout, m, /*async=*/true);
  analysis::AccessLog log;
  log.install();
  SStarNumeric result(*layout);
  exec::execute_program_mp(prog2d, a, result);
  log.uninstall();
  const std::vector<analysis::AccessEvent> events = log.take_events();
  ASSERT_FALSE(events.empty());
  const analysis::DynamicAuditReport report =
      analysis::check_recorded_accesses(prog2d, *layout, events);
  EXPECT_TRUE(report.ok()) << "2D: " << report.summary();
}
#endif  // SSTAR_AUDIT_ENABLED

}  // namespace
}  // namespace sstar
