#include "matrix/sparse.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace sstar {

SparseMatrix SparseMatrix::from_triplets(int rows, int cols,
                                         std::vector<Triplet> triplets) {
  SSTAR_CHECK(rows >= 0 && cols >= 0);
  for (const auto& t : triplets) {
    SSTAR_CHECK_MSG(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
                    "triplet (" << t.row << "," << t.col << ") out of range");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.col != b.col ? a.col < b.col : a.row < b.row;
            });

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.col_ptr_.assign(static_cast<std::size_t>(cols) + 1, 0);
  m.row_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  std::size_t i = 0;
  while (i < triplets.size()) {
    // Sum duplicates at the same (row, col).
    double v = triplets[i].val;
    std::size_t j = i + 1;
    while (j < triplets.size() && triplets[j].col == triplets[i].col &&
           triplets[j].row == triplets[i].row) {
      v += triplets[j].val;
      ++j;
    }
    m.row_idx_.push_back(triplets[i].row);
    m.values_.push_back(v);
    ++m.col_ptr_[static_cast<std::size_t>(triplets[i].col) + 1];
    i = j;
  }
  for (int c = 0; c < cols; ++c) m.col_ptr_[c + 1] += m.col_ptr_[c];
  return m;
}

SparseMatrix SparseMatrix::from_csc(int rows, int cols,
                                    std::vector<int> col_ptr,
                                    std::vector<int> row_idx,
                                    std::vector<double> values) {
  SSTAR_CHECK(static_cast<int>(col_ptr.size()) == cols + 1);
  SSTAR_CHECK(col_ptr.front() == 0);
  SSTAR_CHECK(static_cast<std::size_t>(col_ptr.back()) == row_idx.size());
  SSTAR_CHECK(row_idx.size() == values.size());
  for (int c = 0; c < cols; ++c) {
    SSTAR_CHECK(col_ptr[c] <= col_ptr[c + 1]);
    for (int k = col_ptr[c]; k < col_ptr[c + 1]; ++k) {
      SSTAR_CHECK(row_idx[k] >= 0 && row_idx[k] < rows);
      if (k > col_ptr[c]) SSTAR_CHECK(row_idx[k - 1] < row_idx[k]);
    }
  }
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.col_ptr_ = std::move(col_ptr);
  m.row_idx_ = std::move(row_idx);
  m.values_ = std::move(values);
  return m;
}

SparseMatrix SparseMatrix::from_dense(const DenseMatrix& d, double drop_tol) {
  std::vector<Triplet> t;
  for (int j = 0; j < d.cols(); ++j)
    for (int i = 0; i < d.rows(); ++i)
      if (std::fabs(d(i, j)) > drop_tol) t.push_back({i, j, d(i, j)});
  return from_triplets(d.rows(), d.cols(), std::move(t));
}

SparseMatrix SparseMatrix::identity(int n) {
  std::vector<Triplet> t;
  t.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) t.push_back({i, i, 1.0});
  return from_triplets(n, n, std::move(t));
}

double SparseMatrix::at(int i, int j) const {
  const auto b = row_idx_.begin() + col_ptr_[j];
  const auto e = row_idx_.begin() + col_ptr_[j + 1];
  const auto it = std::lower_bound(b, e, i);
  if (it != e && *it == i)
    return values_[static_cast<std::size_t>(it - row_idx_.begin())];
  return 0.0;
}

bool SparseMatrix::has_entry(int i, int j) const {
  const auto b = row_idx_.begin() + col_ptr_[j];
  const auto e = row_idx_.begin() + col_ptr_[j + 1];
  return std::binary_search(b, e, i);
}

SparseMatrix SparseMatrix::transpose() const {
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.col_ptr_.assign(static_cast<std::size_t>(rows_) + 1, 0);
  t.row_idx_.resize(row_idx_.size());
  t.values_.resize(values_.size());
  // Count entries per row of A (== per column of Aᵀ).
  for (int r : row_idx_) ++t.col_ptr_[static_cast<std::size_t>(r) + 1];
  for (int c = 0; c < rows_; ++c) t.col_ptr_[c + 1] += t.col_ptr_[c];
  std::vector<int> next(t.col_ptr_.begin(), t.col_ptr_.end() - 1);
  for (int j = 0; j < cols_; ++j) {
    for (int k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k) {
      const int pos = next[row_idx_[k]]++;
      t.row_idx_[pos] = j;
      t.values_[pos] = values_[k];
    }
  }
  // Scanning columns in increasing j order leaves each Aᵀ column sorted.
  return t;
}

SparseMatrix SparseMatrix::permuted(const std::vector<int>& row_new_to_old,
                                    const std::vector<int>& col_new_to_old) const {
  if (!row_new_to_old.empty())
    SSTAR_CHECK(static_cast<int>(row_new_to_old.size()) == rows_);
  if (!col_new_to_old.empty())
    SSTAR_CHECK(static_cast<int>(col_new_to_old.size()) == cols_);

  // Inverse row permutation: old row index -> new row index.
  std::vector<int> row_old_to_new;
  if (!row_new_to_old.empty()) {
    row_old_to_new.assign(static_cast<std::size_t>(rows_), -1);
    for (int i = 0; i < rows_; ++i) {
      const int old = row_new_to_old[i];
      SSTAR_CHECK(old >= 0 && old < rows_ && row_old_to_new[old] == -1);
      row_old_to_new[old] = i;
    }
  }

  // Two counting passes, no sort: scatter A's columns, in their new
  // order, into Bᵀ, whose columns (B's rows) therefore come out sorted;
  // then transpose() sorts B's columns the same way.
  const auto new_row = [&](int io) {
    return row_old_to_new.empty() ? io : row_old_to_new[io];
  };
  SparseMatrix bt;
  bt.rows_ = cols_;
  bt.cols_ = rows_;
  bt.col_ptr_.assign(static_cast<std::size_t>(rows_) + 1, 0);
  for (int jn = 0; jn < cols_; ++jn) {
    const int jo = col_new_to_old.empty() ? jn : col_new_to_old[jn];
    SSTAR_CHECK(jo >= 0 && jo < cols_);
    for (int k = col_ptr_[jo]; k < col_ptr_[jo + 1]; ++k)
      ++bt.col_ptr_[static_cast<std::size_t>(new_row(row_idx_[k])) + 1];
  }
  for (int i = 0; i < rows_; ++i) bt.col_ptr_[i + 1] += bt.col_ptr_[i];
  bt.row_idx_.resize(static_cast<std::size_t>(bt.col_ptr_[rows_]));
  bt.values_.resize(bt.row_idx_.size());
  std::vector<int> next(bt.col_ptr_.begin(), bt.col_ptr_.end() - 1);
  for (int jn = 0; jn < cols_; ++jn) {
    const int jo = col_new_to_old.empty() ? jn : col_new_to_old[jn];
    for (int k = col_ptr_[jo]; k < col_ptr_[jo + 1]; ++k) {
      const int pos = next[new_row(row_idx_[k])]++;
      bt.row_idx_[pos] = jn;
      bt.values_[pos] = values_[k];
    }
  }
  return bt.transpose();
}

void SparseMatrix::multiply(const std::vector<double>& x,
                            std::vector<double>& y) const {
  SSTAR_CHECK(static_cast<int>(x.size()) == cols_);
  y.assign(static_cast<std::size_t>(rows_), 0.0);
  for (int j = 0; j < cols_; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    for (int k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k)
      y[row_idx_[k]] += values_[k] * xj;
  }
}

std::vector<double> SparseMatrix::multiply(const std::vector<double>& x) const {
  std::vector<double> y;
  multiply(x, y);
  return y;
}

DenseMatrix SparseMatrix::to_dense() const {
  DenseMatrix d(rows_, cols_);
  for (int j = 0; j < cols_; ++j)
    for (int k = col_ptr_[j]; k < col_ptr_[j + 1]; ++k)
      d(row_idx_[k], j) = values_[k];
  return d;
}

int SparseMatrix::zero_diagonal_count() const {
  SSTAR_CHECK(rows_ == cols_);
  int missing = 0;
  for (int j = 0; j < cols_; ++j)
    if (!has_entry(j, j)) ++missing;
  return missing;
}

double SparseMatrix::max_abs() const {
  double m = 0.0;
  for (double v : values_) m = std::max(m, std::fabs(v));
  return m;
}

bool SparseMatrix::same_pattern(const SparseMatrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         col_ptr_ == other.col_ptr_ && row_idx_ == other.row_idx_;
}

double factorization_residual(const SparseMatrix& a,
                              const std::vector<int>& perm_row,
                              const DenseMatrix& l, const DenseMatrix& u) {
  const int n = a.rows();
  SSTAR_CHECK(a.cols() == n && l.rows() == n && u.rows() == n);
  // R = P*A, i.e. R(perm_row[i], :) = A(i, :).
  DenseMatrix r(n, n);
  for (int j = 0; j < n; ++j)
    for (int k = a.col_begin(j); k < a.col_end(j); ++k)
      r(perm_row[a.row_idx()[k]], j) = a.values()[k];

  double num = 0.0;
  double den = 0.0;
  for (const double v : a.values()) den += v * v;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      // (L*U)(i, j) = sum_k L(i,k) U(k,j) over k <= min(i, j); L diag = 1.
      double lu = 0.0;
      const int kmax = std::min(i, j);
      for (int k = 0; k < kmax; ++k) lu += l(i, k) * u(k, j);
      lu += (i <= j ? u(i, j) : 0.0);          // k = i term (L(i,i) = 1)
      if (i > j && kmax == j) lu += l(i, j) * u(j, j);  // k = j term
      const double d = r(i, j) - lu;
      num += d * d;
    }
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

}  // namespace sstar
