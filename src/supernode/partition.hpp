// Supernode partitioning and amalgamation over the static structure
// (§3.2 and §3.3 of the paper).
//
// A supernode is a maximal run of consecutive columns whose L structures
// are nested (identical below the dense diagonal triangle) and whose U
// row structures are likewise nested. On the George–Ng static structure
// both conditions coincide with "the rows stayed in one candidate group",
// which is what makes Theorem 1 (dense U subcolumns) hold.
//
// Amalgamation then merges consecutive supernodes whose structures differ
// by at most `r` entries (the paper's amalgamation factor; 4–6 reported
// best), trading a few explicit zeros for larger BLAS-3 blocks. The
// result is the paper's "almost dense" structure (Corollary 3).
#pragma once

#include <vector>

#include "symbolic/static_symbolic.hpp"

namespace sstar {

/// A partition of columns 0..n-1 into contiguous blocks.
struct SupernodePartition {
  /// Block b spans columns [start[b], start[b+1]); start.size() == N+1.
  std::vector<int> start;

  int count() const { return static_cast<int>(start.size()) - 1; }
  int width(int b) const { return start[b + 1] - start[b]; }
  int n() const { return start.empty() ? 0 : start.back(); }

  /// Map column -> block index.
  std::vector<int> block_of_column() const;

  /// Mean block width.
  double average_width() const;
};

/// Detect supernodes in the static structure. `max_block` caps supernode
/// width for cache blocking and parallelism (the paper uses 25).
SupernodePartition find_supernodes(const StaticStructure& s, int max_block);

/// Merge consecutive supernodes whose first-column L structures and
/// first-row U structures differ by at most `r` entries, without ever
/// exceeding `max_block` columns. r <= 0 returns the input unchanged.
SupernodePartition amalgamate(const StaticStructure& s,
                              const SupernodePartition& p, int r,
                              int max_block);

}  // namespace sstar
