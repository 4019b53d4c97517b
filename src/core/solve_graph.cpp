#include "core/solve_graph.hpp"

#include <algorithm>

namespace sstar {

SolveGraph::SolveGraph(const BlockLayout& layout)
    : layout_(&layout), nb_(layout.num_blocks()) {
  // Forward writers of each row block, in ascending column block order:
  // FS(j) for every L block (i, j), then FS(i) itself (L block row
  // indices are always > j, so appending i last keeps the order).
  std::vector<std::vector<int>> writers(static_cast<size_t>(nb_));
  for (int j = 0; j < nb_; ++j)
    for (const BlockRef& lref : layout.l_blocks(j))
      writers[static_cast<size_t>(lref.block)].push_back(j);
  for (int i = 0; i < nb_; ++i) writers[static_cast<size_t>(i)].push_back(i);

  for (int i = 0; i < nb_; ++i) {
    const std::vector<int>& w = writers[static_cast<size_t>(i)];
    for (size_t q = 0; q + 1 < w.size(); ++q)
      edges_.emplace_back(forward_task(w[q]), forward_task(w[q + 1]));
  }
  for (int i = 0; i < nb_; ++i)
    edges_.emplace_back(forward_task(i), backward_task(i));
  for (int k = 0; k < nb_; ++k)
    for (const BlockRef& uref : layout.u_blocks(k))
      edges_.emplace_back(backward_task(uref.block), backward_task(k));

  // The same consecutive-writer pair can appear in several row-block
  // chains; keep one copy of each edge.
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  // Level sets by longest path. Edges point forward and are sorted by
  // source, so every edge into a task precedes the edges out of it.
  const int nt = num_tasks();
  level_.assign(static_cast<size_t>(nt), 0);
  int max_level = 0;
  for (const auto& [from, to] : edges_) {
    int& lv = level_[static_cast<size_t>(to)];
    lv = std::max(lv, level_[static_cast<size_t>(from)] + 1);
    max_level = std::max(max_level, lv);
  }
  levels_.assign(static_cast<size_t>(nt == 0 ? 0 : max_level + 1), {});
  for (int t = 0; t < nt; ++t)
    levels_[static_cast<size_t>(level_[static_cast<size_t>(t)])].push_back(t);
}

std::string SolveGraph::task_label(int task) const {
  return (is_forward(task) ? "FS(" : "BS(") + std::to_string(block_of(task)) +
         ")";
}

double SolveGraph::average_parallelism() const {
  return levels_.empty()
             ? 0.0
             : static_cast<double>(num_tasks()) /
                   static_cast<double>(levels_.size());
}

std::vector<SolveGraph::RowAccess> SolveGraph::access_set(int task) const {
  std::vector<RowAccess> out;
  const int k = block_of(task);
  if (is_forward(task)) {
    // Writes row block k, then (ascending: L rows are below the block)
    // every row block the L panel scatters into — which also covers the
    // block's pivot-swap targets, confined to the panel by the static
    // structure.
    out.push_back({k, true});
    for (const BlockRef& lref : layout_->l_blocks(k))
      out.push_back({lref.block, true});
  } else {
    out.push_back({k, true});
    for (const BlockRef& uref : layout_->u_blocks(k))
      out.push_back({uref.block, false});
  }
  return out;
}

}  // namespace sstar
