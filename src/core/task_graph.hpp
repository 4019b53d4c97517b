// The LU task dependence graph of §4.1 (Fig. 9b).
//
// Nodes: Factor(k) for every supernode k, Update(k, j) for every nonzero
// U block (k, j). Edges, exactly the paper's properties:
//   1. Factor(k) -> Update(k, j)                 (pivots + column block)
//   2. Update(k', k) -> Factor(k) where k' is the LAST update of column
//      block k                                   (readiness of block k)
//   3. Update(k, j) -> Update(k', j) for consecutive updating stages of
//      the same column block (the paper's added serialization property,
//      ~6% average loss but much simpler buffering)
#pragma once

#include <cstdint>
#include <vector>

#include "supernode/block_layout.hpp"

namespace sstar {

struct LuTask {
  enum class Type { kFactor, kUpdate };
  Type type = Type::kFactor;
  int k = 0;  ///< source supernode (elimination stage)
  int j = 0;  ///< target column block (== k for Factor)
};

struct LuTaskEdge {
  int from = 0;
  int to = 0;
};

/// Kernel-level LU task DAG over a block layout. Task ids are the
/// sequential loop's order (stage k: Factor(k), then its updates), so
/// every edge points from a lower id to a higher one.
class LuTaskGraph {
 public:
  explicit LuTaskGraph(const BlockLayout& layout);

  const BlockLayout& layout() const { return *layout_; }
  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  const LuTask& task(int t) const { return tasks_[t]; }
  const std::vector<LuTaskEdge>& edges() const { return edges_; }

  /// Task id of Factor(k).
  int factor_task(int k) const { return factor_id_[k]; }
  /// Task id of Update(k, j); -1 if U block (k, j) is zero.
  int update_task(int k, int j) const;

  /// Predecessor/successor lists.
  const std::vector<int>& preds(int t) const { return preds_[t]; }
  const std::vector<int>& succs(int t) const { return succs_[t]; }

 private:
  const BlockLayout* layout_;
  std::vector<LuTask> tasks_;
  std::vector<LuTaskEdge> edges_;
  std::vector<int> factor_id_;
  // update ids parallel to layout_->u_blocks(k) entries.
  std::vector<std::vector<int>> update_id_;
  std::vector<std::vector<int>> preds_, succs_;

  void add_edge(int from, int to);
};

}  // namespace sstar
