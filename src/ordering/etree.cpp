#include "ordering/etree.hpp"

#include "util/check.hpp"

namespace sstar {

namespace {

/// Liu's step for an edge (i, j), i < j: climb from i to the root of its
/// current subtree, pointing every node passed at j, and hang that root
/// under j.
void link_up(int i, int j, std::vector<int>& parent,
             std::vector<int>& ancestor) {
  while (i != -1 && i < j) {
    const int next = ancestor[i];
    ancestor[i] = j;
    if (next == -1) {
      parent[i] = j;
      break;
    }
    i = next;
  }
}

}  // namespace

std::vector<int> elimination_tree(const Pattern& sym) {
  SSTAR_CHECK(sym.rows == sym.cols);
  const int n = sym.cols;
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  std::vector<int> ancestor(static_cast<std::size_t>(n), -1);
  for (int j = 0; j < n; ++j)
    for (int k = sym.col_begin(j); k < sym.col_end(j); ++k)
      link_up(sym.row_idx[k], j, parent, ancestor);  // links only rows < j
  return parent;
}

std::vector<int> column_elimination_tree(const SparseMatrix& a,
                                         const std::vector<int>& col_order) {
  const int n = a.cols();
  SSTAR_CHECK(col_order.empty() || static_cast<int>(col_order.size()) == n);
  const auto old_col = [&](int j) {
    return col_order.empty() ? j : col_order[static_cast<std::size_t>(j)];
  };
  // first[r] = the earliest new position of a column with an entry in
  // row r: the hub that stands in for row r's clique.
  std::vector<int> first(static_cast<std::size_t>(a.rows()), n);
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < n; ++j) {
    const int jo = old_col(j);
    SSTAR_CHECK_MSG(jo >= 0 && jo < n && !seen[jo]++,
                    "col_order is not a permutation");
    for (int k = a.col_begin(jo); k < a.col_end(jo); ++k) {
      int& f = first[a.row_idx()[k]];
      if (f == n) f = j;
    }
  }
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  std::vector<int> ancestor(static_cast<std::size_t>(n), -1);
  for (int j = 0; j < n; ++j) {
    const int jo = old_col(j);
    for (int k = a.col_begin(jo); k < a.col_end(jo); ++k)
      link_up(first[a.row_idx()[k]], j, parent, ancestor);
  }
  return parent;
}

std::vector<int> postorder(const std::vector<int>& parent) {
  const int n = static_cast<int>(parent.size());
  // Build child lists (younger children first for determinism).
  std::vector<int> head(static_cast<std::size_t>(n), -1);
  std::vector<int> next(static_cast<std::size_t>(n), -1);
  for (int v = n - 1; v >= 0; --v) {
    const int p = parent[v];
    if (p != -1) {
      next[v] = head[p];
      head[p] = v;
    }
  }
  std::vector<int> post;
  post.reserve(static_cast<std::size_t>(n));
  std::vector<int> stack;
  for (int r = 0; r < n; ++r) {
    if (parent[r] != -1) continue;
    stack.push_back(r);
    while (!stack.empty()) {
      const int v = stack.back();
      const int c = head[v];
      if (c == -1) {
        post.push_back(v);
        stack.pop_back();
      } else {
        head[v] = next[c];  // consume child c
        stack.push_back(c);
      }
    }
  }
  SSTAR_CHECK_MSG(static_cast<int>(post.size()) == n,
                  "parent[] contains a cycle");
  return post;
}

std::vector<std::int64_t> cholesky_col_counts(const Pattern& sym,
                                              const std::vector<int>& parent) {
  SSTAR_CHECK(sym.rows == sym.cols);
  const int n = sym.cols;
  std::vector<std::int64_t> count(static_cast<std::size_t>(n), 1);  // diagonal
  std::vector<int> mark(static_cast<std::size_t>(n), -1);
  // Row subtree characterization: L(i, j) != 0 iff j is on the path from
  // some k (A(i, k) != 0, k < i) up the etree toward i. Walk each row.
  for (int i = 0; i < n; ++i) {
    mark[i] = i;  // the path stops at i
    for (int k = sym.col_begin(i); k < sym.col_end(i); ++k) {
      int j = sym.row_idx[k];
      if (j >= i) continue;
      while (j != -1 && mark[j] != i) {
        ++count[j];  // L(i, j) is a nonzero
        mark[j] = i;
        j = parent[j];
      }
    }
  }
  return count;
}

}  // namespace sstar
