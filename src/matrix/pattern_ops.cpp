#include "matrix/pattern_ops.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sstar {

Pattern pattern_of(const SparseMatrix& a) {
  Pattern p;
  p.rows = a.rows();
  p.cols = a.cols();
  p.col_ptr = a.col_ptr();
  p.row_idx = a.row_idx();
  return p;
}

Pattern ata_pattern(const SparseMatrix& a) {
  // Column j of AᵀA has a nonzero at row i iff columns i and j of A share
  // a nonzero row. One pass over the columns: gather the columns of every
  // row r of column j once each (a mark array drops repeats, so long
  // columns cost no quadratic duplicate work), sort, append.
  const SparseMatrix at = a.transpose();  // columns of at == rows of a
  const int n = a.cols();

  Pattern p;
  p.rows = n;
  p.cols = n;
  p.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);

  std::vector<int> mark(static_cast<std::size_t>(n), -1);
  std::vector<int> scratch;
  for (int j = 0; j < n; ++j) {
    scratch.clear();
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      const int r = a.row_idx()[k];
      // All columns i with A(r, i) != 0, i.e. row r of A = column r of Aᵀ.
      for (int k2 = at.col_begin(r); k2 < at.col_end(r); ++k2) {
        const int i = at.row_idx()[k2];
        if (mark[i] != j) {
          mark[i] = j;
          scratch.push_back(i);
        }
      }
    }
    std::sort(scratch.begin(), scratch.end());
    p.row_idx.insert(p.row_idx.end(), scratch.begin(), scratch.end());
    p.col_ptr[static_cast<std::size_t>(j) + 1] =
        static_cast<int>(p.row_idx.size());
  }
  return p;
}

Pattern aplusat_pattern(const SparseMatrix& a) {
  SSTAR_CHECK(a.rows() == a.cols());
  const SparseMatrix at = a.transpose();
  const int n = a.cols();
  Pattern p;
  p.rows = n;
  p.cols = n;
  p.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  p.row_idx.reserve(static_cast<std::size_t>(2 * a.nnz()));
  for (int j = 0; j < n; ++j) {
    // Merge sorted columns of A and Aᵀ.
    int ka = a.col_begin(j), kb = at.col_begin(j);
    const int ea = a.col_end(j), eb = at.col_end(j);
    while (ka < ea || kb < eb) {
      int r;
      if (kb >= eb || (ka < ea && a.row_idx()[ka] <= at.row_idx()[kb])) {
        r = a.row_idx()[ka];
        if (kb < eb && at.row_idx()[kb] == r) ++kb;
        ++ka;
      } else {
        r = at.row_idx()[kb];
        ++kb;
      }
      p.row_idx.push_back(r);
    }
    p.col_ptr[static_cast<std::size_t>(j) + 1] =
        static_cast<int>(p.row_idx.size());
  }
  return p;
}

double structural_symmetry(const SparseMatrix& a) {
  SSTAR_CHECK(a.rows() == a.cols());
  std::int64_t offdiag = 0;
  std::int64_t mirrored = 0;
  for (int j = 0; j < a.cols(); ++j) {
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      const int i = a.row_idx()[k];
      if (i == j) continue;
      ++offdiag;
      if (a.has_entry(j, i)) ++mirrored;
    }
  }
  return offdiag == 0 ? 1.0
                      : static_cast<double>(mirrored) /
                            static_cast<double>(offdiag);
}

}  // namespace sstar
