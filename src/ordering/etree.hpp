// Elimination trees and postordering.
//
// The S* pipeline needs the elimination tree of AᵀA in two places. The
// symbolic Cholesky of AᵀA (the loose fill bound of Table 1) builds the
// AᵀA pattern anyway and runs elimination_tree on it. prepare()
// postorders the tree under the chosen column ordering, and takes it
// straight from A with column_elimination_tree, never forming AᵀA.
// `Pattern` inputs must be symmetric with both triangles stored (as
// produced by ata_pattern / aplusat_pattern).
#pragma once

#include <vector>

#include "matrix/pattern_ops.hpp"

namespace sstar {

/// Liu's elimination-tree algorithm with path compression.
/// parent[j] = parent column of j, or -1 for roots.
std::vector<int> elimination_tree(const Pattern& sym);

/// The column elimination tree of A under the column order
/// `col_order` (new -> old; empty = identity): bit for bit
/// elimination_tree(ata_pattern(A(:, col_order))), from A alone, as
/// SuperLU's sp_coletree computes it. Each row's clique in AᵀA becomes
/// the edges from the row's first column, which leaves the filled graph,
/// and so the tree, unchanged. A may be rectangular; row order does not
/// matter. parent[] is in the new numbering.
std::vector<int> column_elimination_tree(const SparseMatrix& a,
                                         const std::vector<int>& col_order);

/// Postorder of a forest given by parent[]: returns `post` with
/// post[k] = the node visited k-th; children before parents.
std::vector<int> postorder(const std::vector<int>& parent);

/// Number of nonzeros per column of the Cholesky factor L of the
/// symmetric pattern (diagonal included), computed by row-subtree
/// traversal. Total fill = sum of the result.
std::vector<std::int64_t> cholesky_col_counts(const Pattern& sym,
                                              const std::vector<int>& parent);

}  // namespace sstar
