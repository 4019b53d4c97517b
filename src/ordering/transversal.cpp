#include "ordering/transversal.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace sstar {

Transversal max_transversal(const SparseMatrix& a) {
  SSTAR_CHECK(a.rows() == a.cols());
  const int n = a.cols();

  std::vector<int> col_of_row(static_cast<std::size_t>(n), -1);
  std::vector<int> row_of_col(static_cast<std::size_t>(n), -1);

  // Cheap assignment: greedily match each column to the first free row.
  for (int j = 0; j < n; ++j) {
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      const int r = a.row_idx()[k];
      if (col_of_row[r] == -1) {
        col_of_row[r] = j;
        row_of_col[j] = r;
        break;
      }
    }
  }

  // Augmenting-path phase (iterative DFS, MC21-style: each column keeps a
  // cursor into its row list so total work is bounded per phase). A
  // search rewinds a column's cursor when it first pushes the column, so
  // it pays only for the columns it reaches, not for all n.
  std::vector<int> visited(static_cast<std::size_t>(n), -1);
  std::vector<int> cursor(static_cast<std::size_t>(n));
  std::vector<int> stack;   // columns on the DFS path
  int matched = 0;
  for (int j = 0; j < n; ++j)
    if (row_of_col[j] != -1) ++matched;

  for (int j0 = 0; j0 < n; ++j0) {
    if (row_of_col[j0] != -1) continue;
    // DFS from unmatched column j0 looking for an augmenting path.
    stack.clear();
    stack.push_back(j0);
    visited[j0] = j0;
    cursor[j0] = a.col_begin(j0);
    bool augmented = false;
    while (!stack.empty()) {
      const int j = stack.back();
      bool advanced = false;
      while (cursor[j] < a.col_end(j)) {
        const int r = a.row_idx()[cursor[j]++];
        const int jc = col_of_row[r];
        if (jc == -1) {
          // Free row: augment along the stack.
          int rr = r;
          for (int s = static_cast<int>(stack.size()) - 1; s >= 0; --s) {
            const int js = stack[static_cast<std::size_t>(s)];
            const int prev = row_of_col[js];
            row_of_col[js] = rr;
            col_of_row[rr] = js;
            rr = prev;
          }
          augmented = true;
          break;
        }
        if (visited[jc] != j0) {
          visited[jc] = j0;
          cursor[jc] = a.col_begin(jc);
          stack.push_back(jc);
          advanced = true;
          break;
        }
      }
      if (augmented) break;
      if (!advanced) stack.pop_back();
    }
    if (augmented) ++matched;
  }

  Transversal t;
  t.matched = matched;
  t.row_for_col = std::move(row_of_col);
  return t;
}

std::vector<int> zero_free_diagonal_rows(const SparseMatrix& a) {
  Transversal t = max_transversal(a);
  const int n = a.cols();
  if (!t.complete(n)) {
    // Name the first column and the first row the matching left out, in
    // A's own numbering.
    std::vector<char> row_matched(static_cast<std::size_t>(n), 0);
    int col = -1;
    for (int j = 0; j < n; ++j) {
      const int r = t.row_for_col[static_cast<std::size_t>(j)];
      if (r >= 0)
        row_matched[static_cast<std::size_t>(r)] = 1;
      else if (col < 0)
        col = j;
    }
    const auto row = std::find(row_matched.begin(), row_matched.end(), 0) -
                     row_matched.begin();
    SSTAR_FAIL("matrix is structurally singular: only "
               << t.matched << " of " << n << " columns matched; column "
               << col << " and row " << row << " are unmatched");
  }
  return std::move(t.row_for_col);
}

SparseMatrix make_zero_free_diagonal(const SparseMatrix& a,
                                     std::vector<int>* row_new_to_old) {
  std::vector<int> rows = zero_free_diagonal_rows(a);
  SparseMatrix b = a.permuted(rows, {});
  if (row_new_to_old) *row_new_to_old = std::move(rows);
  return b;
}

}  // namespace sstar
