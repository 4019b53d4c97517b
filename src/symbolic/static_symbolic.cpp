#include "symbolic/static_symbolic.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "util/check.hpp"

namespace sstar {

std::int64_t StaticStructure::factor_ops() const {
  std::int64_t ops = 0;
  for (int k = 0; k < n; ++k) {
    const std::int64_t lk = l_col_ptr[k + 1] - l_col_ptr[k];
    const std::int64_t uk = u_row_ptr[k + 1] - u_row_ptr[k];  // incl diag
    ops += lk + 2 * lk * (uk - 1);
  }
  return ops;
}

namespace {

/// Sorted union of the sorted lists list_of(g) over the groups g on one
/// registry chain. The longest list is copied as it is; the entries the
/// others add are sorted apart and merged in, so only the new entries,
/// usually few, pay for a sort.
template <class ListOf>
void chain_union(int first, const std::vector<int>& next, ListOf list_of,
                 int stamp, std::vector<int>& mark, std::vector<int>& extra,
                 std::vector<int>& out) {
  int longest = first;
  for (int g = next[first]; g != -1; g = next[g])
    if (list_of(g).size() > list_of(longest).size()) longest = g;
  const std::span<const int> base = list_of(longest);
  for (int v : base) mark[v] = stamp;
  extra.clear();
  for (int g = first; g != -1; g = next[g]) {
    if (g == longest) continue;
    for (int v : list_of(g)) {
      if (mark[v] != stamp) {
        mark[v] = stamp;
        extra.push_back(v);
      }
    }
  }
  std::sort(extra.begin(), extra.end());
  out.resize(base.size() + extra.size());
  std::merge(base.begin(), base.end(), extra.begin(), extra.end(),
             out.begin());
}

}  // namespace

StaticStructure static_symbolic_factorization(const SparseMatrix& a) {
  SSTAR_CHECK(a.rows() == a.cols());
  const int n = a.rows();
  SSTAR_CHECK_MSG(a.zero_diagonal_count() == 0,
                  "static symbolic factorization requires a zero-free "
                  "diagonal; run max_transversal first");

  // Row structures of A: build from Aᵀ (columns of Aᵀ are rows of A).
  const SparseMatrix at = a.transpose();

  StaticStructure s;
  s.n = n;
  s.l_col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  s.u_row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);

  // Row groups (see header) need no storage of their own. Group i < n is
  // row i of A, as it starts; group n + k is the one formed at step k,
  // whose rows are L column k and whose structure is U row k without its
  // diagonal. A group is registered under its first column only: no
  // column of its structure is smaller, so it is a candidate at exactly
  // that step and merges away there. head[c] is the last group
  // registered under column c; next[] chains the others.
  std::vector<int> head(static_cast<std::size_t>(n), -1);
  std::vector<int> next(2 * static_cast<std::size_t>(n), -1);
  const auto add_group = [&](int g, int first_col) {
    next[g] = head[first_col];
    head[first_col] = g;
  };
  for (int i = 0; i < n; ++i) add_group(i, at.row_idx()[at.col_begin(i)]);

  const auto cols_of = [&](int g) -> std::span<const int> {
    if (g < n)
      return {at.row_idx().data() + at.col_begin(g),
              at.row_idx().data() + at.col_end(g)};
    return {s.u_cols.data() + s.u_row_ptr[g - n] + 1,
            s.u_cols.data() + s.u_row_ptr[g - n + 1]};
  };
  std::vector<int> rows(static_cast<std::size_t>(n));
  std::iota(rows.begin(), rows.end(), 0);
  const auto rows_of = [&](int g) -> std::span<const int> {
    if (g < n) return {rows.data() + g, 1};
    return {s.l_rows.data() + s.l_col_ptr[g - n],
            s.l_rows.data() + s.l_col_ptr[g - n + 1]};
  };

  std::vector<int> col_mark(static_cast<std::size_t>(n), -1);
  std::vector<int> row_mark(static_cast<std::size_t>(n), -1);
  std::vector<int> extra;
  std::vector<int> union_cols;    // merged structure
  std::vector<int> union_members; // merged member rows

  for (int k = 0; k < n; ++k) {
    // Union the structures (columns >= k) and members of the candidate
    // groups, the ones registered under column k.
    SSTAR_CHECK_MSG(head[k] != -1, "no candidate rows at step " << k
                                       << " (diagonal lost?)");
    chain_union(head[k], next, cols_of, k, col_mark, extra, union_cols);
    chain_union(head[k], next, rows_of, k, row_mark, extra, union_members);
    SSTAR_CHECK_MSG(union_members.front() == k,
                    "row " << k << " is not a candidate at its own step");
    SSTAR_CHECK(union_cols.front() == k);

    // Emit U row k = the union (diagonal first).
    s.u_cols.insert(s.u_cols.end(), union_cols.begin(), union_cols.end());
    s.u_row_ptr[k + 1] =
        s.u_row_ptr[k] + static_cast<std::int64_t>(union_cols.size());

    // Emit L column k = candidate rows below the diagonal.
    s.l_rows.insert(s.l_rows.end(), union_members.begin() + 1,
                    union_members.end());
    s.l_col_ptr[k + 1] =
        s.l_col_ptr[k] + static_cast<std::int64_t>(union_members.size()) - 1;

    // Retire row k; the rest form group n + k. Every member row i > k
    // still holds column i, so its structure is never empty.
    if (union_members.size() > 1) add_group(n + k, union_cols[1]);
  }
  return s;
}

bool structure_contains(const StaticStructure& s, const SparseMatrix& l,
                        const SparseMatrix& u) {
  const int n = s.n;
  if (l.rows() != n || l.cols() != n || u.rows() != n || u.cols() != n)
    return false;
  // L check: every below-diagonal entry of l must appear in s's L column.
  for (int j = 0; j < n; ++j) {
    const auto lb = s.l_rows.begin() + s.l_col_ptr[j];
    const auto le = s.l_rows.begin() + s.l_col_ptr[j + 1];
    for (int k = l.col_begin(j); k < l.col_end(j); ++k) {
      const int i = l.row_idx()[k];
      if (i <= j) continue;
      if (!std::binary_search(lb, le, i)) return false;
    }
  }
  // U check: every on/above-diagonal entry of u must be in s's U rows.
  // u is CSC; scan columns and test per row using binary search into the
  // row-major structure.
  for (int j = 0; j < n; ++j) {
    for (int k = u.col_begin(j); k < u.col_end(j); ++k) {
      const int i = u.row_idx()[k];
      if (i > j) continue;
      const auto ub = s.u_cols.begin() + s.u_row_ptr[i];
      const auto ue = s.u_cols.begin() + s.u_row_ptr[i + 1];
      if (!std::binary_search(ub, ue, j)) return false;
    }
  }
  return true;
}

}  // namespace sstar
