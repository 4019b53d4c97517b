// Block-triangular solve dependence graph: the serving layer's DAG
// (DESIGN.md §14), built ONCE per factor and replayed per solve batch.
//
// One forward task FS(k) and one backward task BS(k) per supernode;
// FS(k) runs forward_block_panel(k) (row interchanges, diagonal lower
// solve, L-panel elimination), BS(k) runs backward_block_panel(k)
// (U-panel gather, diagonal upper solve). Edges:
//
//   1. Per-row-block forward chains: all FS tasks that write row block
//      i — FS(j) for every L block (i, j), plus FS(i) itself — linked
//      consecutively in ascending j. Chains serialize every pair of
//      conflicting forward writers in the SEQUENTIAL sweep order, so
//      any dependency-respecting schedule reproduces the sequential
//      accumulation (and pivot-swap) order on every row — solves are
//      bitwise-identical to solve() at any thread count. L block row
//      indices always exceed the column block, so FS(i) is each
//      chain's last member.
//   2. FS(i) -> BS(i): block i's backward stage needs the fully
//      forward-eliminated rows, and FS(i) is the last forward toucher
//      of row block i (by 1.).
//   3. BS(j) -> BS(k) for every U block (k, j): BS(k) gathers the
//      solved values of column block j.
//
// Task ids are the sequential sweep's order, FS(0..nb-1) then
// BS(nb-1..0), so every edge points forward (from < to) and the executor
// runs the DAG directly. Level sets (longest-path depth) expose the
// schedule's available parallelism; the static auditor
// (analysis::audit_solve_graph) proves the edge set orders every
// conflicting row-block access pair.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "supernode/block_layout.hpp"

namespace sstar {

class SolveGraph {
 public:
  explicit SolveGraph(const BlockLayout& layout);

  const BlockLayout& layout() const { return *layout_; }
  int num_blocks() const { return nb_; }
  int num_tasks() const { return 2 * nb_; }

  /// Task ids in sweep order: FS(k) = k, BS(k) = 2 * num_blocks() - 1 - k.
  int forward_task(int k) const { return k; }
  int backward_task(int k) const { return 2 * nb_ - 1 - k; }
  bool is_forward(int task) const { return task < nb_; }
  int block_of(int task) const {
    return task < nb_ ? task : 2 * nb_ - 1 - task;
  }
  std::string task_label(int task) const;  // "FS(3)" / "BS(7)"

  /// All dependence edges (from, to), from < to, deduplicated and
  /// sorted.
  const std::vector<std::pair<int, int>>& edges() const { return edges_; }

  /// Level sets: level_of(t) = longest dependence path into t; tasks of
  /// one level are mutually independent and may run concurrently.
  int num_levels() const { return static_cast<int>(levels_.size()); }
  int level_of(int task) const { return level_[static_cast<size_t>(task)]; }
  const std::vector<std::vector<int>>& levels() const { return levels_; }

  /// num_tasks / num_levels — the schedule's average DAG width, the
  /// classic level-set parallelism metric for triangular solves.
  double average_parallelism() const;

  /// Row blocks task t touches, ascending by row block. FS(k) writes
  /// row block k (swaps + diagonal solve) and every L-block row block
  /// (swap targets + eliminations); BS(k) writes row block k and reads
  /// each U block's column block. The declared sets feed the static
  /// solve-DAG audit (analysis::audit_solve_graph).
  struct RowAccess {
    int row_block;
    bool write;
  };
  std::vector<RowAccess> access_set(int task) const;

 private:
  const BlockLayout* layout_;
  int nb_;
  std::vector<std::pair<int, int>> edges_;
  std::vector<int> level_;
  std::vector<std::vector<int>> levels_;
};

}  // namespace sstar
