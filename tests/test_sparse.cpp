// Unit tests for the sparse matrix core and Matrix Market I/O.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <sstream>
#include <utility>

#include "matrix/io.hpp"
#include "matrix/sparse.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sstar {
namespace {

TEST(SparseMatrix, FromTripletsSumsDuplicatesAndSorts) {
  std::vector<Triplet> t = {{2, 0, 1.0}, {0, 0, 2.0}, {2, 0, 3.0},
                            {1, 1, 5.0}, {0, 1, -1.0}};
  const auto m = SparseMatrix::from_triplets(3, 2, std::move(t));
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
  // Sorted row indices per column.
  for (int j = 0; j < m.cols(); ++j)
    for (int k = m.col_begin(j) + 1; k < m.col_end(j); ++k)
      EXPECT_LT(m.row_idx()[k - 1], m.row_idx()[k]);
}

TEST(SparseMatrix, FromTripletsRejectsOutOfRange) {
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}), CheckError);
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{0, -1, 1.0}}), CheckError);
}

TEST(SparseMatrix, FromCscValidates) {
  EXPECT_THROW(
      SparseMatrix::from_csc(2, 2, {0, 1, 2}, {1, 0}, {1.0}),  // size lie
      CheckError);
  EXPECT_THROW(
      SparseMatrix::from_csc(2, 2, {0, 2, 2}, {1, 0}, {1.0, 2.0}),  // unsorted
      CheckError);
  const auto ok = SparseMatrix::from_csc(2, 2, {0, 2, 2}, {0, 1}, {1.0, 2.0});
  EXPECT_EQ(ok.nnz(), 2);
}

TEST(SparseMatrix, TransposeRoundTrip) {
  const auto m = testing::random_sparse(40, 5, 42);
  const auto mt = m.transpose();
  const auto mtt = mt.transpose();
  EXPECT_TRUE(m.same_pattern(mtt));
  for (int j = 0; j < m.cols(); ++j)
    for (int k = m.col_begin(j); k < m.col_end(j); ++k)
      EXPECT_DOUBLE_EQ(mt.at(j, m.row_idx()[k]), m.values()[k]);
}

TEST(SparseMatrix, PermutedMatchesDense) {
  const auto m = testing::random_sparse(8, 3, 7);
  const std::vector<int> rp = {3, 1, 0, 7, 6, 2, 5, 4};
  const std::vector<int> cp = {1, 0, 2, 4, 3, 6, 5, 7};
  const auto p = m.permuted(rp, cp);
  const auto md = m.to_dense();
  const auto pd = p.to_dense();
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j)
      EXPECT_DOUBLE_EQ(pd(i, j), md(rp[i], cp[j]));
}

TEST(SparseMatrix, PermutedIdentityArgs) {
  const auto m = testing::random_sparse(10, 3, 9);
  const auto p = m.permuted({}, {});
  EXPECT_TRUE(m.same_pattern(p));
}

/// A uniformly random permutation of 0..n-1 (Fisher–Yates).
std::vector<int> random_permutation(int n, Rng& rng) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  for (int i = n - 1; i > 0; --i) std::swap(p[i], p[rng.uniform_int(0, i)]);
  return p;
}

/// permuted() as it was built before the two-pass scatter: one triplet
/// per entry, then from_triplets' global sort.
SparseMatrix permuted_by_triplets(const SparseMatrix& a,
                                  const std::vector<int>& rows,
                                  const std::vector<int>& cols) {
  std::vector<int> row_old_to_new(static_cast<std::size_t>(a.rows()));
  for (int i = 0; i < a.rows(); ++i)
    row_old_to_new[rows.empty() ? i : rows[i]] = i;
  std::vector<Triplet> t;
  for (int jn = 0; jn < a.cols(); ++jn) {
    const int jo = cols.empty() ? jn : cols[jn];
    for (int k = a.col_begin(jo); k < a.col_end(jo); ++k)
      t.push_back({row_old_to_new[a.row_idx()[k]], jn, a.values()[k]});
  }
  return SparseMatrix::from_triplets(a.rows(), a.cols(), std::move(t));
}

TEST(Sparse, PermutedMatchesTripletReference) {
  Rng rng(testing::test_seed(61));
  for (int trial = 0; trial < 40; ++trial) {
    const int m = trial == 0 ? 0 : rng.uniform_int(1, 40);
    const int n = trial == 0 ? 0 : rng.uniform_int(1, 40);
    // Rectangular, with empty rows and columns, and values whose bits a
    // sum or a sort by value would disturb: -0.0 and denormals.
    std::vector<Triplet> t;
    for (int e = 0; e < m * n / 4; ++e) {
      const double pick = rng.uniform();
      const double v = pick < 0.1   ? -0.0
                       : pick < 0.2 ? 4.9e-324 * rng.uniform_int(1, 9)
                                    : rng.uniform(-1.0, 1.0);
      t.push_back({rng.uniform_int(0, m - 1), rng.uniform_int(0, n - 1), v});
    }
    const SparseMatrix a = SparseMatrix::from_triplets(m, n, std::move(t));
    const std::vector<int> rp = random_permutation(m, rng);
    const std::vector<int> cp = random_permutation(n, rng);
    for (const auto& [rows, cols] :
         {std::pair{rp, cp}, std::pair{rp, std::vector<int>{}},
          std::pair{std::vector<int>{}, cp},
          std::pair{std::vector<int>{}, std::vector<int>{}}}) {
      const SparseMatrix got = a.permuted(rows, cols);
      const SparseMatrix want = permuted_by_triplets(a, rows, cols);
      ASSERT_TRUE(got.same_pattern(want)) << "trial " << trial;
      ASSERT_EQ(got.values().size(), want.values().size());
      if (!got.values().empty()) {
        EXPECT_EQ(std::memcmp(got.values().data(), want.values().data(),
                              got.values().size() * sizeof(double)),
                  0)
            << "trial " << trial;
      }
    }
  }
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  const auto m = testing::random_sparse(25, 4, 3);
  const auto x = testing::random_vector(25, 5);
  const auto y = m.multiply(x);
  const auto d = m.to_dense();
  for (int i = 0; i < 25; ++i) {
    double ref = 0.0;
    for (int j = 0; j < 25; ++j) ref += d(i, j) * x[j];
    EXPECT_NEAR(y[i], ref, 1e-12);
  }
}

TEST(SparseMatrix, IdentityAndDiagnostics) {
  const auto eye = SparseMatrix::identity(5);
  EXPECT_EQ(eye.nnz(), 5);
  EXPECT_EQ(eye.zero_diagonal_count(), 0);
  EXPECT_DOUBLE_EQ(eye.max_abs(), 1.0);

  const auto m = SparseMatrix::from_triplets(3, 3, {{0, 0, 2.0}, {2, 1, 1.0}});
  EXPECT_EQ(m.zero_diagonal_count(), 2);
}

TEST(MatrixMarket, RoundTrip) {
  const auto m = testing::random_sparse(30, 4, 11);
  std::stringstream ss;
  io::write_matrix_market(m, ss);
  const auto back = io::read_matrix_market(ss);
  ASSERT_TRUE(m.same_pattern(back));
  for (std::size_t i = 0; i < m.values().size(); ++i)
    EXPECT_DOUBLE_EQ(m.values()[i], back.values()[i]);
}

TEST(MatrixMarket, ParsesSymmetricAndPattern) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% a comment\n"
      "3 3 3\n"
      "1 1\n"
      "3 1\n"
      "3 2\n");
  const auto m = io::read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 5);  // mirror of (3,1) and (3,2) added
  EXPECT_DOUBLE_EQ(m.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.0);
}

TEST(MatrixMarket, RejectsGarbage) {
  std::stringstream a("not a matrix\n");
  EXPECT_THROW(io::read_matrix_market(a), CheckError);
  std::stringstream b("%%MatrixMarket matrix array real general\n2 2\n");
  EXPECT_THROW(io::read_matrix_market(b), CheckError);
  std::stringstream c(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 3.0\n");
  EXPECT_THROW(io::read_matrix_market(c), CheckError);

  // Hostile inputs must fail with a CheckError naming the cause.
  const auto expect_rejected = [](const std::string& body,
                                  const std::string& cause) {
    std::stringstream in("%%MatrixMarket matrix coordinate real general\n" +
                         body);
    try {
      io::read_matrix_market(in);
      ADD_FAILURE() << "accepted: " << body;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(cause), std::string::npos)
          << e.what();
    }
  };
  // The final entry's value is missing.
  expect_rejected("2 2 2\n1 1 1.0\n2 2\n", "truncated at entry 2 of 2");
  // Fewer entries than the header promises.
  expect_rejected("3 3 3\n1 1 1.0\n2 2 2.0\n", "truncated at entry 3 of 3");
  // An entry count no reservation could honour.
  expect_rejected("2 2 1000000000000000000\n1 1 1.0\n",
                  "truncated at entry 2 of 1000000000000000000");
  // A dimension beyond the int-indexed matrix.
  expect_rejected("3000000000 2 1\n1 1 1.0\n",
                  "size line 3000000000 2 1");
}

TEST(FactorizationResidual, ZeroForExactFactors) {
  // A = L U with known unit-lower L and upper U, identity permutation.
  const int n = 4;
  DenseMatrix l(n, n), u(n, n);
  for (int i = 0; i < n; ++i) {
    l(i, i) = 1.0;
    u(i, i) = 2.0 + i;
    for (int j = 0; j < i; ++j) l(i, j) = 0.5 * (i + j + 1);
    for (int j = i + 1; j < n; ++j) u(i, j) = 1.0 / (i + j + 1);
  }
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int k = 0; k < n; ++k) acc += l(i, k) * u(k, j);
      a(i, j) = acc;
    }
  std::vector<int> perm = {0, 1, 2, 3};
  EXPECT_NEAR(
      factorization_residual(SparseMatrix::from_dense(a), perm, l, u), 0.0,
      1e-13);
}

}  // namespace
}  // namespace sstar
