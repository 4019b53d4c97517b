// Walkthrough of the paper's running examples:
//  - the static symbolic factorization on the small 5x5 matrix (Fig. 2),
//  - the 2D L/U supernode partition of the 7x7 matrix (Fig. 4),
//  - the task dependence graph (Fig. 9),
//  - Gantt charts of the compute-ahead vs graph schedules (Fig. 11).
//
//   ./example_paper_walkthrough
#include <cstdio>
#include <string>

#include "core/lu_1d.hpp"
#include "core/task_graph.hpp"
#include "matrix/sparse.hpp"
#include "ordering/transversal.hpp"
#include "sched/list_schedule.hpp"
#include "supernode/block_layout.hpp"
#include "symbolic/static_symbolic.hpp"

using namespace sstar;

namespace {

SparseMatrix fig2_matrix() {
  return SparseMatrix::from_triplets(
      5, 5,
      {{0, 0, 4.0}, {0, 2, 1.0}, {0, 4, 2.0}, {1, 1, 5.0}, {1, 3, 1.0},
       {2, 0, 1.0}, {2, 2, 6.0}, {3, 1, 2.0}, {3, 3, 7.0}, {3, 4, 1.0},
       {4, 0, 3.0}, {4, 4, 8.0}});
}

SparseMatrix fig4_matrix() {
  return SparseMatrix::from_triplets(
      7, 7,
      {{0, 0, 9.0}, {1, 0, 1.0}, {4, 0, 1.0}, {0, 1, 1.0}, {1, 1, 8.0},
       {4, 1, 2.0}, {2, 2, 7.0}, {3, 2, 1.0}, {5, 2, 1.0}, {2, 3, 2.0},
       {3, 3, 9.0}, {5, 3, 2.0}, {4, 4, 6.0}, {5, 4, 1.0}, {6, 4, 2.0},
       {4, 5, 1.0}, {5, 5, 7.0}, {6, 5, 1.0}, {0, 6, 1.0}, {2, 6, 2.0},
       {6, 6, 9.0}});
}

void print_structure(const StaticStructure& s) {
  for (int i = 0; i < s.n; ++i) {
    std::string line(static_cast<std::size_t>(s.n), '.');
    // L part of row i: columns j < i with i in L column j.
    for (int j = 0; j < i; ++j) {
      for (std::int64_t k = s.l_col_ptr[j]; k < s.l_col_ptr[j + 1]; ++k)
        if (s.l_rows[k] == i) line[j] = 'L';
    }
    for (std::int64_t k = s.u_row_ptr[i]; k < s.u_row_ptr[i + 1]; ++k)
      line[s.u_cols[k]] = s.u_cols[k] == i ? 'D' : 'U';
    std::printf("  %s\n", line.c_str());
  }
}

}  // namespace

int main() {
  std::printf("== Fig. 2: static symbolic factorization on a 5x5 matrix\n");
  const auto a5 = fig2_matrix();
  const auto s5 = static_symbolic_factorization(a5);
  std::printf("input pattern -> predicted L+U structure "
              "(D diag, U upper, L lower):\n");
  print_structure(s5);
  std::printf("factor entries: %lld (matrix had %lld)\n\n",
              (long long)s5.factor_entries(), (long long)a5.nnz());

  std::printf("== Fig. 4: 2D L/U supernode partition of a 7x7 matrix\n");
  const auto a7 = fig4_matrix();
  const auto s7 = static_symbolic_factorization(a7);
  const auto part = find_supernodes(s7, 25);
  const BlockLayout layout(s7, part);
  std::printf("supernode boundaries:");
  for (const int b : part.start) std::printf(" %d", b);
  std::printf("\n");
  for (int b = 0; b < layout.num_blocks(); ++b) {
    std::printf("  block %d: cols [%d,%d)", b, layout.start(b),
                layout.start(b) + layout.width(b));
    std::printf(", L panel rows:");
    for (const int r : layout.panel_rows(b)) std::printf(" %d", r);
    std::printf(", U panel cols:");
    for (const int c : layout.panel_cols(b)) std::printf(" %d", c);
    std::printf("\n");
  }

  std::printf("\n== Fig. 9: the LU task dependence graph\n");
  const LuTaskGraph graph(layout);
  for (int t = 0; t < graph.num_tasks(); ++t) {
    const auto& task = graph.task(t);
    std::printf("  %s(%d%s%s) <-",
                task.type == LuTask::Type::kFactor ? "F" : "U", task.k,
                task.type == LuTask::Type::kUpdate ? "," : "",
                task.type == LuTask::Type::kUpdate
                    ? std::to_string(task.j).c_str()
                    : "");
    for (const int p : graph.preds(t)) {
      const auto& pt = graph.task(p);
      std::printf(" %s(%d%s%s)",
                  pt.type == LuTask::Type::kFactor ? "F" : "U", pt.k,
                  pt.type == LuTask::Type::kUpdate ? "," : "",
                  pt.type == LuTask::Type::kUpdate
                      ? std::to_string(pt.j).c_str()
                      : "");
    }
    std::printf("\n");
  }

  std::printf("\n== Fig. 11: compute-ahead vs graph schedule on 2 procs\n");
  const auto m = sim::MachineModel::cray_t3d(2).with_grid({1, 2});
  for (const auto kind :
       {Schedule1DKind::kComputeAhead, Schedule1DKind::kGraph}) {
    const auto res = run_1d(layout, m, kind, /*capture_gantt=*/true);
    std::printf("%s schedule, parallel time %.2e s:\n%s\n",
                kind == Schedule1DKind::kComputeAhead ? "compute-ahead"
                                                      : "graph",
                res.seconds, res.gantt.c_str());
  }
  return 0;
}
