// Unit tests for the sparse matrix core and Matrix Market I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "matrix/io.hpp"
#include "matrix/sparse.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

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
