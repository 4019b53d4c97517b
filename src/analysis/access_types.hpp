// Leaf types of the dependence auditor: the resource coordinate system
// and access kinds. Kept dependency-free so the numeric kernels and the
// simulator can reference them (via analysis/access_log.hpp) without
// pulling in the task graph.
#pragma once

#include <string>

namespace sstar::analysis {

enum class Access : unsigned char { kRead, kWrite };

/// One auditable resource: block (i, j) of the N x N block grid
/// (i > j: L block, i == j: diagonal block, i < j: U block), or — with
/// j == kPivotSeq — the pivot sequence of supernode i (the pivot_of_col
/// range written by Factor(i) and read by every ScaleSwap(i, *)), or —
/// with j == kSolveRows — row block i of the right-hand side a
/// triangular-solve task reads or updates (core/solve_graph).
struct BlockCoord {
  int i = 0;
  int j = 0;

  static constexpr int kPivotSeq = -1;
  static constexpr int kSolveRows = -2;

  bool is_pivot_seq() const { return j == kPivotSeq; }
  bool is_solve_rows() const { return j == kSolveRows; }

  friend bool operator==(const BlockCoord& a, const BlockCoord& b) {
    return a.i == b.i && a.j == b.j;
  }
  friend bool operator<(const BlockCoord& a, const BlockCoord& b) {
    return a.i != b.i ? a.i < b.i : a.j < b.j;
  }
};

struct BlockAccess {
  BlockCoord block;
  Access access = Access::kRead;
};

/// "read" / "write".
const char* access_name(Access a);

/// "diag(3)", "L(5,3)", "U(3,7)", "piv(3)", "rows(3)".
std::string block_name(BlockCoord b);

}  // namespace sstar::analysis
