#include "core/task_graph.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sstar {

LuTaskGraph::LuTaskGraph(const BlockLayout& layout) : layout_(&layout) {
  const int nb = layout.num_blocks();
  factor_id_.resize(nb);
  update_id_.resize(nb);

  // Create tasks stage by stage: Factor(k), then its updates — already a
  // topological order given the edge rules below.
  for (int k = 0; k < nb; ++k) {
    factor_id_[k] = static_cast<int>(tasks_.size());
    tasks_.push_back({LuTask::Type::kFactor, k, k});
    for (const BlockRef& uref : layout.u_blocks(k)) {
      update_id_[k].push_back(static_cast<int>(tasks_.size()));
      tasks_.push_back({LuTask::Type::kUpdate, k, uref.block});
    }
  }
  preds_.resize(tasks_.size());
  succs_.resize(tasks_.size());

  // last_update[j] = most recent Update(*, j) task, in stage order.
  std::vector<int> last_update(nb, -1);
  for (int k = 0; k < nb; ++k) {
    // Property 2: the last update of column block k precedes Factor(k).
    if (last_update[k] != -1) add_edge(last_update[k], factor_id_[k]);
    const auto& ublocks = layout.u_blocks(k);
    for (std::size_t u = 0; u < ublocks.size(); ++u) {
      const int j = ublocks[u].block;
      const int ut = update_id_[k][u];
      // Property 1: Factor(k) -> Update(k, j).
      add_edge(factor_id_[k], ut);
      // Property 3: consecutive updates of the same column block.
      if (last_update[j] != -1) add_edge(last_update[j], ut);
      last_update[j] = ut;
    }
  }
}

void LuTaskGraph::add_edge(int from, int to) {
  edges_.push_back({from, to});
  succs_[from].push_back(to);
  preds_[to].push_back(from);
}

int LuTaskGraph::update_task(int k, int j) const {
  const auto& ublocks = layout_->u_blocks(k);
  for (std::size_t u = 0; u < ublocks.size(); ++u)
    if (ublocks[u].block == j) return update_id_[k][u];
  return -1;
}

}  // namespace sstar
