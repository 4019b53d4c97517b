// Tests for pattern ops, transversal, elimination tree, RCM and
// minimum-degree ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "matrix/pattern_ops.hpp"
#include "ordering/etree.hpp"
#include "ordering/min_degree.hpp"
#include "ordering/rcm.hpp"
#include "ordering/transversal.hpp"
#include "symbolic/cholesky_symbolic.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sstar {
namespace {

TEST(PatternOps, AtaMatchesDense) {
  const auto a = testing::random_sparse(20, 3, 17);
  const Pattern p = ata_pattern(a);
  const auto d = a.to_dense();
  for (int j = 0; j < 20; ++j) {
    for (int i = 0; i < 20; ++i) {
      bool nz = false;
      for (int r = 0; r < 20 && !nz; ++r)
        nz = d(r, i) != 0.0 && d(r, j) != 0.0;
      bool stored = false;
      for (int k = p.col_begin(j); k < p.col_end(j) && !stored; ++k)
        stored = p.row_idx[k] == i;
      EXPECT_EQ(stored, nz) << "(" << i << "," << j << ")";
    }
  }
}

TEST(PatternOps, AtaIsSymmetric) {
  const auto a = testing::random_sparse(50, 4, 23);
  const Pattern p = ata_pattern(a);
  // Symmetry: count (i, j) vs (j, i).
  std::vector<std::pair<int, int>> entries;
  for (int j = 0; j < p.cols; ++j)
    for (int k = p.col_begin(j); k < p.col_end(j); ++k)
      entries.push_back({p.row_idx[k], j});
  for (auto [i, j] : entries) {
    bool found = false;
    for (int k = p.col_begin(i); k < p.col_end(i) && !found; ++k)
      found = p.row_idx[k] == j;
    EXPECT_TRUE(found);
  }
}

TEST(PatternOps, AplusAtMatchesDense) {
  const auto a = testing::random_sparse(15, 3, 31);
  const Pattern p = aplusat_pattern(a);
  for (int j = 0; j < 15; ++j) {
    for (int k = p.col_begin(j) + 1; k < p.col_end(j); ++k)
      EXPECT_LT(p.row_idx[k - 1], p.row_idx[k]);  // sorted, unique
    for (int i = 0; i < 15; ++i) {
      const bool want = a.has_entry(i, j) || a.has_entry(j, i);
      bool got = false;
      for (int k = p.col_begin(j); k < p.col_end(j) && !got; ++k)
        got = p.row_idx[k] == i;
      EXPECT_EQ(got, want);
    }
  }
}

TEST(PatternOps, StructuralSymmetryScores) {
  // Fully symmetric pattern.
  auto s = SparseMatrix::from_triplets(
      3, 3, {{0, 0, 1}, {1, 0, 2}, {0, 1, 3}, {2, 2, 1}});
  EXPECT_DOUBLE_EQ(structural_symmetry(s), 1.0);
  // Fully one-sided.
  auto u = SparseMatrix::from_triplets(3, 3,
                                       {{0, 0, 1}, {1, 0, 2}, {2, 0, 3}});
  EXPECT_DOUBLE_EQ(structural_symmetry(u), 0.0);
  // Diagonal only.
  EXPECT_DOUBLE_EQ(structural_symmetry(SparseMatrix::identity(4)), 1.0);
}

TEST(Transversal, FindsZeroFreeDiagonal) {
  // A matrix whose natural diagonal has zeros but which is structurally
  // nonsingular: a cyclic shift.
  std::vector<Triplet> t;
  const int n = 6;
  for (int j = 0; j < n; ++j) t.push_back({(j + 1) % n, j, 1.0});
  const auto a = SparseMatrix::from_triplets(n, n, std::move(t));
  EXPECT_EQ(a.zero_diagonal_count(), n);
  const auto fixed = make_zero_free_diagonal(a);
  EXPECT_EQ(fixed.zero_diagonal_count(), 0);
}

TEST(Transversal, DetectsStructuralSingularity) {
  // Column 2 is empty.
  const auto a = SparseMatrix::from_triplets(
      3, 3, {{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1}});
  const auto t = max_transversal(a);
  EXPECT_EQ(t.matched, 2);
  EXPECT_THROW(make_zero_free_diagonal(a), CheckError);
}

TEST(Transversal, NeedsAugmentingPaths) {
  // Crafted so the cheap pass cannot finish: both columns 0 and 1 prefer
  // row 0; column 2 only has row 2; column 1 must displace via a path.
  const auto a = SparseMatrix::from_triplets(
      3, 3,
      {{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {2, 2, 1}, {1, 2, 1}});
  const auto t = max_transversal(a);
  EXPECT_EQ(t.matched, 3);
  // Verify the permutation actually yields a zero-free diagonal.
  const auto fixed = a.permuted(t.row_for_col, {});
  EXPECT_EQ(fixed.zero_diagonal_count(), 0);
}

TEST(Transversal, RandomMatricesAlwaysComplete) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto a = testing::random_sparse(60, 4, seed);
    const auto t = max_transversal(a);
    EXPECT_EQ(t.matched, 60) << "seed " << seed;
  }
}

TEST(Transversal, ManyAugmentingPathsStayLinear) {
  // With h = n / 2, column j < h holds rows {j, h + j} and column h + j
  // holds row j alone. The cheap pass gives column j row j, so each of
  // the h columns h + j needs an augmenting path through column j: h
  // searches that reach two columns each. A search that rewinds every
  // column's cursor makes this quadratic, seconds at this size; ctest
  // gives the case a timeout of a few seconds.
  const int n = 400000;
  const int h = n / 2;
  std::vector<int> col_ptr = {0};
  std::vector<int> row_idx;
  for (int j = 0; j < h; ++j) {
    row_idx.insert(row_idx.end(), {j, h + j});
    col_ptr.push_back(static_cast<int>(row_idx.size()));
  }
  for (int j = 0; j < h; ++j) {
    row_idx.push_back(j);
    col_ptr.push_back(static_cast<int>(row_idx.size()));
  }
  std::vector<double> values(row_idx.size(), 1.0);
  const auto a = SparseMatrix::from_csc(n, n, std::move(col_ptr),
                                        std::move(row_idx), std::move(values));
  const auto t = max_transversal(a);
  ASSERT_EQ(t.matched, n);
  for (int j = 0; j < h; ++j) {
    ASSERT_EQ(t.row_for_col[j], h + j) << "column " << j;
    ASSERT_EQ(t.row_for_col[h + j], j) << "column " << h + j;
  }
}

TEST(Etree, ChainForTridiagonal) {
  // Tridiagonal pattern: etree is a path 0 -> 1 -> ... -> n-1.
  const int n = 8;
  std::vector<Triplet> t;
  for (int i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i + 1 < n) {
      t.push_back({i + 1, i, -1.0});
      t.push_back({i, i + 1, -1.0});
    }
  }
  const auto a = SparseMatrix::from_triplets(n, n, std::move(t));
  const auto parent = elimination_tree(pattern_of(a));
  for (int i = 0; i + 1 < n; ++i) EXPECT_EQ(parent[i], i + 1);
  EXPECT_EQ(parent[n - 1], -1);
}

TEST(Etree, PostorderVisitsChildrenFirst) {
  const auto a = testing::random_sparse(40, 3, 5);
  const Pattern p = ata_pattern(a);
  const auto parent = elimination_tree(p);
  const auto post = postorder(parent);
  ASSERT_TRUE(is_permutation(post));
  std::vector<int> position(post.size());
  for (std::size_t k = 0; k < post.size(); ++k) position[post[k]] = (int)k;
  for (std::size_t v = 0; v < parent.size(); ++v) {
    if (parent[v] != -1) {
      EXPECT_LT(position[v], position[parent[v]]);
    }
  }
}

TEST(Etree, ColumnTreeMatchesAtaTree) {
  // n in {0, 1, 2}: the empty matrix, 1 x 1 empty and full, every 2 x 2
  // pattern; then random square and rectangular patterns, sparse enough
  // to leave rows and columns empty.
  std::vector<SparseMatrix> cases = {
      SparseMatrix::from_triplets(0, 0, {}),
      SparseMatrix::from_triplets(1, 1, {}),
      SparseMatrix::from_triplets(1, 1, {{0, 0, 1.0}})};
  for (int mask = 0; mask < 16; ++mask) {
    std::vector<Triplet> t;
    for (int e = 0; e < 4; ++e)
      if (mask >> e & 1) t.push_back({e % 2, e / 2, 1.0});
    cases.push_back(SparseMatrix::from_triplets(2, 2, std::move(t)));
  }
  Rng rng(testing::test_seed(83));
  for (int trial = 0; trial < 60; ++trial) {
    const int m = rng.uniform_int(1, 30);
    const int n = trial % 3 == 0 ? m : rng.uniform_int(1, 30);
    const int entries = rng.uniform_int(0, 2 * (m + n));
    std::vector<Triplet> t;
    for (int e = 0; e < entries; ++e)
      t.push_back({rng.uniform_int(0, m - 1), rng.uniform_int(0, n - 1), 1.0});
    cases.push_back(SparseMatrix::from_triplets(m, n, std::move(t)));
  }
  cases.push_back(testing::random_sparse(80, 4, 19));

  for (std::size_t c = 0; c < cases.size(); ++c) {
    const SparseMatrix& a = cases[c];
    std::vector<int> shuffled(static_cast<std::size_t>(a.cols()));
    std::iota(shuffled.begin(), shuffled.end(), 0);
    for (int i = a.cols() - 1; i > 0; --i)
      std::swap(shuffled[i], shuffled[rng.uniform_int(0, i)]);
    for (const std::vector<int>& q :
         {std::vector<int>{}, shuffled, min_degree_order(ata_pattern(a))}) {
      const auto want = elimination_tree(ata_pattern(a.permuted({}, q)));
      EXPECT_EQ(column_elimination_tree(a, q), want)
          << "case " << c << " (" << a.rows() << " x " << a.cols() << ")";
    }
  }
}

TEST(Etree, CholeskyCountsMatchDenseSimulation) {
  // Brute-force symbolic Cholesky on a small symmetric pattern.
  const auto a = testing::random_sparse(18, 3, 77);
  const Pattern p = ata_pattern(a);
  const auto parent = elimination_tree(p);
  const auto counts = cholesky_col_counts(p, parent);

  // Dense boolean elimination of the same pattern.
  const int n = p.cols;
  std::vector<std::vector<bool>> f(n, std::vector<bool>(n, false));
  for (int j = 0; j < n; ++j) {
    f[j][j] = true;
    for (int k = p.col_begin(j); k < p.col_end(j); ++k)
      f[p.row_idx[k]][j] = true;
  }
  for (int k = 0; k < n; ++k)
    for (int i = k + 1; i < n; ++i)
      if (f[i][k])
        for (int j = k + 1; j < n; ++j)
          if (f[j][k]) f[std::max(i, j)][std::min(i, j)] = true;
  for (int j = 0; j < n; ++j) {
    std::int64_t want = 0;
    for (int i = j; i < n; ++i) want += f[i][j];
    EXPECT_EQ(counts[j], want) << "column " << j;
  }
}

TEST(CholeskyBound, AtLeastMatrixSize) {
  const auto a = testing::random_sparse(30, 3, 2);
  const auto b = cholesky_ata_bound(a);
  EXPECT_GE(b.factor_nnz, 30);
  EXPECT_EQ(b.lu_bound, 2 * b.factor_nnz - 30);
}

TEST(Rcm, ProducesPermutationAndReducesBandwidth) {
  // A randomly permuted banded matrix: RCM should recover a small
  // bandwidth.
  const int n = 60;
  std::vector<Triplet> t;
  for (int i = 0; i < n; ++i)
    for (int j = std::max(0, i - 2); j <= std::min(n - 1, i + 2); ++j)
      t.push_back({i, j, 1.0});
  auto banded = SparseMatrix::from_triplets(n, n, std::move(t));
  std::vector<int> shuffle(n);
  std::iota(shuffle.begin(), shuffle.end(), 0);
  for (int i = 0; i < n; ++i) std::swap(shuffle[i], shuffle[(i * 37 + 11) % n]);
  auto scrambled = banded.permuted(shuffle, shuffle);

  const auto perm = rcm_order(aplusat_pattern(scrambled));
  ASSERT_TRUE(is_permutation(perm));
  const auto back = scrambled.permuted(perm, perm);
  int bw = 0;
  for (int j = 0; j < n; ++j)
    for (int k = back.col_begin(j); k < back.col_end(j); ++k)
      bw = std::max(bw, std::abs(back.row_idx()[k] - j));
  EXPECT_LE(bw, 6);  // true band is 2; allow slack
}

TEST(MinDegree, PermutationOnVariousGraphs) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto a = testing::random_sparse(50, 3, 100 + seed);
    const auto perm = min_degree_order(ata_pattern(a));
    EXPECT_TRUE(is_permutation(perm)) << "seed " << seed;
  }
}

TEST(MinDegree, HandlesDiagonalAndDenseGraphs) {
  // Diagonal matrix: every vertex has degree 0.
  EXPECT_TRUE(is_permutation(
      min_degree_order(pattern_of(SparseMatrix::identity(12)))));
  // Fully dense pattern.
  std::vector<Triplet> t;
  for (int i = 0; i < 10; ++i)
    for (int j = 0; j < 10; ++j) t.push_back({i, j, 1.0});
  EXPECT_TRUE(is_permutation(min_degree_order(
      pattern_of(SparseMatrix::from_triplets(10, 10, std::move(t))))));
}

TEST(MinDegree, BeatsNaturalOrderOnGridFill) {
  // On a 2D grid, minimum degree should produce clearly less Cholesky
  // fill than the natural (row-by-row) order.
  const int nx = 14, ny = 14, n = nx * ny;
  std::vector<Triplet> t;
  auto idx = [&](int x, int y) { return x + nx * y; };
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x) {
      t.push_back({idx(x, y), idx(x, y), 4.0});
      if (x + 1 < nx) {
        t.push_back({idx(x + 1, y), idx(x, y), -1.0});
        t.push_back({idx(x, y), idx(x + 1, y), -1.0});
      }
      if (y + 1 < ny) {
        t.push_back({idx(x, y + 1), idx(x, y), -1.0});
        t.push_back({idx(x, y), idx(x, y + 1), -1.0});
      }
    }
  const auto a = SparseMatrix::from_triplets(n, n, std::move(t));

  const auto natural = cholesky_ata_bound(a);
  const auto perm = min_degree_order(ata_pattern(a));
  ASSERT_TRUE(is_permutation(perm));
  const auto ordered = cholesky_ata_bound(a.permuted(perm, perm));
  EXPECT_LT(ordered.factor_nnz, natural.factor_nnz * 3 / 4)
      << "min degree should reduce fill substantially";
}

TEST(Permutations, InvertAndValidate) {
  const std::vector<int> p = {2, 0, 3, 1};
  const auto inv = invert_permutation(p);
  EXPECT_EQ(inv, (std::vector<int>{1, 3, 0, 2}));
  EXPECT_TRUE(is_permutation(p));
  EXPECT_FALSE(is_permutation({0, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 3}));
  EXPECT_THROW(invert_permutation({1, 1}), CheckError);
}

}  // namespace
}  // namespace sstar
