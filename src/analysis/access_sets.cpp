#include "analysis/access_sets.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sstar::analysis {

const char* access_name(Access a) {
  return a == Access::kWrite ? "write" : "read";
}

std::string block_name(BlockCoord b) {
  if (b.is_pivot_seq()) return "piv(" + std::to_string(b.i) + ")";
  if (b.is_solve_rows()) return "rows(" + std::to_string(b.i) + ")";
  if (b.i == b.j) return "diag(" + std::to_string(b.i) + ")";
  const char* kind = b.i > b.j ? "L(" : "U(";
  return kind + std::to_string(b.i) + "," + std::to_string(b.j) + ")";
}

namespace {

void push(std::vector<BlockAccess>* out, int i, int j, Access a) {
  out->push_back({{i, j}, a});
}

/// True iff block (i, j) of the grid holds any stored entries — the
/// presence condition under which a kernel can touch it at all.
bool block_present(const BlockLayout& lay, int i, int j) {
  if (i == j) return true;  // diagonal blocks are stored dense
  if (i < j) return lay.find_u_block(i, j) != nullptr;
  return lay.find_l_block(i, j) != nullptr;
}

}  // namespace

std::vector<BlockAccess> factor_access_set(const BlockLayout& lay, int k) {
  std::vector<BlockAccess> out;
  out.reserve(lay.l_blocks(k).size() + 2);
  push(&out, k, BlockCoord::kPivotSeq, Access::kWrite);
  push(&out, k, k, Access::kWrite);
  for (const BlockRef& lref : lay.l_blocks(k))
    push(&out, lref.block, k, Access::kWrite);
  return out;
}

std::vector<BlockAccess> update_access_set(const BlockLayout& lay, int k,
                                           int j) {
  SSTAR_CHECK_MSG(lay.find_u_block(k, j) != nullptr,
                  "Update(" << k << "," << j << ") on a zero U block");
  const auto& lblocks = lay.l_blocks(k);
  std::vector<BlockAccess> out;
  out.reserve(2 * lblocks.size() + 3);

  // Sources: the pivot sequence (ScaleSwap replays it), the diagonal
  // block (DTRSM divisor), and the L panel blocks (DGEMM operands).
  push(&out, k, BlockCoord::kPivotSeq, Access::kRead);
  push(&out, k, k, Access::kRead);
  for (const BlockRef& lref : lblocks)
    push(&out, lref.block, k, Access::kRead);

  // Targets: the U block itself (row m of a delayed interchange lives in
  // block row k, and DTRSM rewrites the whole slice), plus every present
  // block (i, j) a pivot row or a DGEMM scatter can land in. Pivot rows
  // of stage k live in panel_rows(k), i.e. exactly the row blocks of
  // l_blocks(k) — the same i set the scatter targets.
  push(&out, k, j, Access::kWrite);
  for (const BlockRef& lref : lblocks) {
    const int i = lref.block;
    if (block_present(lay, i, j)) push(&out, i, j, Access::kWrite);
  }
  return out;
}

std::vector<BlockAccess> kernel_access_set(const BlockLayout& lay,
                                           const LuTask& task) {
  return task.type == LuTask::Type::kFactor
             ? factor_access_set(lay, task.k)
             : update_access_set(lay, task.k, task.j);
}

std::vector<BlockAccess> task_access_set(const LuTaskGraph& graph, int t) {
  return kernel_access_set(graph.layout(), graph.task(t));
}

std::string task_label(const LuTaskGraph& graph, int t) {
  const LuTask& task = graph.task(t);
  if (task.type == LuTask::Type::kFactor)
    return "F(" + std::to_string(task.k) + ")";
  return "U(" + std::to_string(task.k) + "," + std::to_string(task.j) + ")";
}

std::vector<BlockAccess> task_access_set(const sim::ParallelProgram& prog,
                                         const BlockLayout& lay, int t) {
  std::vector<BlockAccess> out;
  for (const LuTask& task : prog.task(t).kernels) {
    const auto one = kernel_access_set(lay, task);
    out.insert(out.end(), one.begin(), one.end());
  }
  return out;
}

std::string task_label(const sim::ParallelProgram& prog, int t) {
  const std::string& label = prog.task(t).label;
  return label.empty() ? "task " + std::to_string(t) : label;
}

}  // namespace sstar::analysis
