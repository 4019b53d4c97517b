// Static symbolic factorization for sparse GEPP (George & Ng; §3.1 and
// Fig. 2 of the paper).
//
// Given A with a zero-free diagonal, computes a structure for L and U
// large enough to accommodate the fill-in of *any* partial-pivoting row
// interchange sequence: at each step k, every candidate pivot row (row
// i >= k with a structural nonzero in column k) has its structure
// replaced by the union of all candidate structures restricted to
// columns >= k.
//
// Implementation note. The textbook formulation is quadratic. We exploit
// the algorithm's own invariant — after step k all candidate rows share
// one structure — by keeping rows in *groups* with a single shared
// structure. Each group is registered under its first column, the one
// step at which it is a candidate; at step k the groups registered under
// column k merge into one new group in a single sorted union, whose
// members and structure are L column k and U row k, so groups keep no
// storage of their own. Each column of the output is emitted exactly
// once, so the total cost is O((|L| + |U|) log n)-ish rather than O(n^2).
#pragma once

#include <cstdint>
#include <vector>

#include "matrix/sparse.hpp"

namespace sstar {

/// The predicted worst-case structure of the factors of PA = LU.
struct StaticStructure {
  int n = 0;

  /// Strictly-below-diagonal structure of L, by column: rows of column k
  /// are l_rows[l_col_ptr[k] .. l_col_ptr[k+1]), sorted ascending.
  std::vector<std::int64_t> l_col_ptr;
  std::vector<int> l_rows;

  /// On-and-above-diagonal structure of U, by row: columns of row k are
  /// u_cols[u_row_ptr[k] .. u_row_ptr[k+1]), sorted ascending, first
  /// entry always the diagonal k.
  std::vector<std::int64_t> u_row_ptr;
  std::vector<int> u_cols;

  std::int64_t l_nnz() const { return l_col_ptr.empty() ? 0 : l_col_ptr[n]; }
  std::int64_t u_nnz() const { return u_row_ptr.empty() ? 0 : u_row_ptr[n]; }
  /// Total predicted factor entries (L strictly lower + U upper incl
  /// diagonal) — the "factor entries" statistic of Table 1.
  std::int64_t factor_entries() const { return l_nnz() + u_nnz(); }

  /// Dense GEPP-style operation count implied by this structure:
  /// sum_k |L_k| (divisions) + 2 |L_k| (|U_k| - 1) (update mul/adds).
  std::int64_t factor_ops() const;
};

/// Run the static symbolic factorization. A must be square with a
/// structurally zero-free diagonal (apply max_transversal first).
StaticStructure static_symbolic_factorization(const SparseMatrix& a);

/// Check containment: does `s` cover all of the entries of the lower
/// factor columns/upper factor rows given as a concrete filled pattern
/// (e.g. produced by an actual numerical factorization)? Used by tests to
/// validate the any-pivot-sequence upper-bound property.
bool structure_contains(const StaticStructure& s, const SparseMatrix& l,
                        const SparseMatrix& u);

}  // namespace sstar
