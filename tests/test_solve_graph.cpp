// Tests for the solve DAG (core/solve_graph) and its static dependence
// audit (analysis/audit, audit_solve_graph): the level-set schedule
// respects every edge, the declared access sets are fully ordered by
// the edge set, and a deleted edge is pinpointed by the auditor (the
// negative self-test the serving layer's bitwise claim rests on).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/audit.hpp"
#include "analysis/reachability.hpp"
#include "core/solve_graph.hpp"
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

  static Fixture make(int n, std::uint64_t seed, int max_block = 8) {
    Fixture f;
    f.a = make_zero_free_diagonal(testing::random_sparse(n, 4, seed));
    f.s = static_symbolic_factorization(f.a);
    auto part = amalgamate(f.s, find_supernodes(f.s, max_block), 4, max_block);
    f.layout = std::make_unique<BlockLayout>(f.s, std::move(part));
    return f;
  }
};

TEST(SolveGraph, TaskIdsAndLabels) {
  const auto f = Fixture::make(60, 1);
  const SolveGraph g(*f.layout);
  const int nb = g.num_blocks();
  ASSERT_EQ(g.num_tasks(), 2 * nb);
  for (int k = 0; k < nb; ++k) {
    EXPECT_TRUE(g.is_forward(g.forward_task(k)));
    EXPECT_FALSE(g.is_forward(g.backward_task(k)));
    EXPECT_EQ(g.block_of(g.forward_task(k)), k);
    EXPECT_EQ(g.block_of(g.backward_task(k)), k);
  }
  EXPECT_EQ(g.task_label(g.forward_task(3)), "FS(3)");
  EXPECT_EQ(g.task_label(g.backward_task(3)), "BS(3)");
}

TEST(SolveGraph, LevelsRespectEveryEdge) {
  for (const std::uint64_t seed : {2u, 3u, 4u}) {
    const auto f = Fixture::make(120, seed);
    const SolveGraph g(*f.layout);
    for (const auto& e : g.edges())
      ASSERT_LT(g.level_of(e.first), g.level_of(e.second))
          << g.task_label(e.first) << " -> " << g.task_label(e.second);
    // Levels partition the task set.
    int total = 0;
    for (const auto& level : g.levels()) total += static_cast<int>(level.size());
    EXPECT_EQ(total, g.num_tasks());
    EXPECT_GE(g.average_parallelism(), 1.0);
    EXPECT_LE(g.num_levels(), g.num_tasks());
  }
}

TEST(SolveGraph, EdgesFollowSequentialOrder) {
  // Task ids are the sequential sweep FS(0..nb-1), BS(nb-1..0), and
  // every edge points forward: the graph is a relaxation of that total
  // order, never a reordering.
  const auto f = Fixture::make(100, 5);
  const SolveGraph g(*f.layout);
  const int nb = g.num_blocks();
  for (int k = 0; k < nb; ++k) {
    EXPECT_EQ(g.forward_task(k), k);
    EXPECT_EQ(g.backward_task(k), 2 * nb - 1 - k);
  }
  for (const auto& e : g.edges())
    ASSERT_LT(e.first, e.second)
        << g.task_label(e.first) << " -> " << g.task_label(e.second);
}

TEST(SolveGraph, AuditCleanAcrossSuite) {
  for (const std::uint64_t seed : {6u, 7u, 8u, 9u}) {
    const auto f = Fixture::make(150, seed, seed % 2 == 0 ? 8 : 16);
    const SolveGraph g(*f.layout);
    const auto report = analysis::audit_solve_graph(g);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GT(report.pairs_checked, 0);
    EXPECT_EQ(report.num_tasks, g.num_tasks());
  }
}

TEST(SolveGraph, DeletedEdgePinpointed) {
  // The auditor's negative self-test: delete each edge in turn. Either
  // the pair stays ordered transitively through the remaining edges, or
  // the auditor must report a violation naming EXACTLY that pair as the
  // missing edge. At least one edge must be load-bearing.
  const auto f = Fixture::make(120, 10);
  const SolveGraph g(*f.layout);
  const auto& edges = g.edges();
  ASSERT_FALSE(edges.empty());
  int load_bearing = 0;
  for (std::size_t del = 0; del < edges.size(); ++del) {
    std::vector<std::pair<int, int>> pruned;
    pruned.reserve(edges.size() - 1);
    for (std::size_t i = 0; i < edges.size(); ++i)
      if (i != del) pruned.push_back(edges[i]);
    const analysis::Reachability reach(g.num_tasks(), pruned);
    if (reach.ordered(edges[del].first, edges[del].second)) continue;
    ++load_bearing;
    const auto report = analysis::audit_solve_graph(g, pruned);
    ASSERT_FALSE(report.ok())
        << "deleting " << g.task_label(edges[del].first) << " -> "
        << g.task_label(edges[del].second) << " went undetected";
    // The deleted pair itself must be among the violations (other pairs
    // whose only ordering path crossed the edge may be reported too).
    bool pinpointed = false;
    for (const auto& v : report.violations)
      if (v.task_a == edges[del].first && v.task_b == edges[del].second)
        pinpointed = true;
    ASSERT_TRUE(pinpointed)
        << "auditor missed the deleted edge "
        << g.task_label(edges[del].first) << " -> "
        << g.task_label(edges[del].second);
  }
  EXPECT_GT(load_bearing, 0);
}

TEST(SolveGraph, AccessSetsDeclareTheRightRows) {
  const auto f = Fixture::make(80, 11);
  const SolveGraph g(*f.layout);
  for (int k = 0; k < g.num_blocks(); ++k) {
    const auto fwd = g.access_set(g.forward_task(k));
    ASSERT_FALSE(fwd.empty());
    EXPECT_EQ(fwd.front().row_block, k);  // diagonal write first
    EXPECT_TRUE(fwd.front().write);
    for (const auto& acc : fwd) EXPECT_TRUE(acc.write);
    const auto bwd = g.access_set(g.backward_task(k));
    ASSERT_FALSE(bwd.empty());
    EXPECT_EQ(bwd.front().row_block, k);
    EXPECT_TRUE(bwd.front().write);
    for (std::size_t i = 1; i < bwd.size(); ++i) EXPECT_FALSE(bwd[i].write);
  }
}

}  // namespace
}  // namespace sstar
