// 2D L/U block layout (§3.2): the supernode column partition applied to
// the rows as well, dividing the matrix into N x N submatrices.
//
// Storage consequences of Theorem 1 / Corollary 3:
//  - the diagonal block of each supernode is stored fully dense
//    (unit-lower L triangle + upper U triangle);
//  - all L blocks below a diagonal block are stored stacked as one dense
//    "panel": (#panel rows) x (supernode width), because every present
//    row is (almost-)dense across the supernode's columns;
//  - all U blocks to the right of a diagonal block are stored stacked as
//    one dense panel: (supernode width) x (#panel cols), because every
//    present column is (almost-)dense down the supernode's rows.
//
// Individual L blocks are row-ranges of the L panel; individual U blocks
// are column-ranges of the U panel. This is what lets Update(k, j) run as
// a single DGEMM of the whole L panel by the U block.
#pragma once

#include <cstdint>
#include <vector>

#include "supernode/partition.hpp"

namespace sstar {

/// One off-diagonal block: a slice of its supernode's panel.
struct BlockRef {
  int block = 0;   ///< the row block (for L) or column block (for U)
  int offset = 0;  ///< first index into panel_rows / panel_cols
  int count = 0;   ///< number of panel rows / cols in this block
};

class BlockLayout {
 public:
  /// Build from the static structure and an (amalgamated) partition.
  BlockLayout(const StaticStructure& s, SupernodePartition part);

  int n() const { return n_; }
  int num_blocks() const { return part_.count(); }
  const SupernodePartition& partition() const { return part_; }
  int start(int b) const { return part_.start[b]; }
  int width(int b) const { return part_.width(b); }
  int block_of_column(int c) const { return block_of_col_[c]; }

  /// Global rows (>= start(J+1)) present in column block J's L panel.
  const std::vector<int>& panel_rows(int j) const { return panel_rows_[j]; }
  /// Global cols (>= start(I+1)) present in row block I's U panel.
  const std::vector<int>& panel_cols(int i) const { return panel_cols_[i]; }

  /// Nonzero L blocks below diagonal block J, ascending row block.
  const std::vector<BlockRef>& l_blocks(int j) const { return l_blocks_[j]; }
  /// Nonzero U blocks right of diagonal block I, ascending column block.
  const std::vector<BlockRef>& u_blocks(int i) const { return u_blocks_[i]; }

  /// Find the L block (I, J); returns nullptr if structurally zero.
  const BlockRef* find_l_block(int i, int j) const;
  /// Find the U block (I, J); returns nullptr if structurally zero.
  const BlockRef* find_u_block(int i, int j) const;

  /// Local index of global row r inside panel_rows(j), or -1.
  int panel_row_index(int j, int r) const;
  /// Local index of global col c inside panel_cols(i), or -1.
  int panel_col_index(int i, int c) const;

  /// Total stored doubles: diagonal triangles + L and U panels (this is
  /// the padded, almost-dense storage the factorization allocates).
  std::int64_t stored_entries() const;
  /// Factor entries of the underlying static structure (unpadded).
  std::int64_t structure_entries() const { return structure_entries_; }

 private:
  int n_ = 0;
  SupernodePartition part_;
  std::vector<int> block_of_col_;
  std::vector<std::vector<int>> panel_rows_;
  std::vector<std::vector<int>> panel_cols_;
  std::vector<std::vector<BlockRef>> l_blocks_;
  std::vector<std::vector<BlockRef>> u_blocks_;
  std::int64_t structure_entries_ = 0;
};

}  // namespace sstar
