// Maximum transversal (Duff's MC21 algorithm).
//
// Static symbolic factorization requires a structurally zero-free
// diagonal (§3.1); the paper permutes rows with a transversal from
// Duff's algorithm [11], noting it also tends to reduce fill. This is a
// depth-first augmenting-path bipartite matching with the classic
// "cheap assignment" first pass.
#pragma once

#include <vector>

#include "matrix/sparse.hpp"

namespace sstar {

/// Result of the transversal search.
struct Transversal {
  /// row_for_col[j] = original row index placed at position j, so that
  /// A.permuted(row_for_col, {}) has a zero-free diagonal. Valid only if
  /// complete.
  std::vector<int> row_for_col;
  /// Number of matched columns; == n iff the matrix is structurally
  /// nonsingular.
  int matched = 0;
  bool complete(int n) const { return matched == n; }
};

/// Compute a maximum transversal of the square matrix A.
Transversal max_transversal(const SparseMatrix& a);

/// The row permutation (new -> old) of a complete transversal:
/// A.permuted(result, {}) has a zero-free diagonal. Throws CheckError if
/// A is structurally singular, naming a column and a row of A that the
/// maximum transversal leaves unmatched.
std::vector<int> zero_free_diagonal_rows(const SparseMatrix& a);

/// Convenience: permute rows of A so the diagonal is zero-free. Throws
/// CheckError if A is structurally singular. Outputs the row permutation
/// used (new -> old) if `row_new_to_old` is non-null.
SparseMatrix make_zero_free_diagonal(const SparseMatrix& a,
                                     std::vector<int>* row_new_to_old = nullptr);

}  // namespace sstar
