// Unit tests for the dense BLAS kernels, validated against naive
// reference loops on random inputs, plus flop-accounting checks.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "blas/dense_blas.hpp"
#include "util/rng.hpp"

namespace sstar::blas {
namespace {

std::vector<double> random_vec(int n, std::uint64_t seed) {
  Rng r(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = r.uniform(-2.0, 2.0);
  return v;
}

TEST(Idamax, FindsFirstLargest) {
  const std::vector<double> x = {1.0, -5.0, 3.0, 5.0, -5.0};
  EXPECT_EQ(idamax(5, x.data()), 1);
  EXPECT_EQ(idamax(0, x.data()), 0);
  EXPECT_EQ(idamax(1, x.data()), 0);
}

TEST(Idamax, FirstNanWins) {
  // A NaN must win the pivot search wherever it sits, so Factor(k)
  // reports it instead of pivoting past it.
  const double nan = std::nan("");
  const std::vector<double> lead = {nan, 5.0, nan};
  EXPECT_EQ(idamax(3, lead.data()), 0);
  const std::vector<double> later = {1.0, -7.0, nan, 9.0, nan};
  EXPECT_EQ(idamax(5, later.data()), 2);
  const std::vector<double> strided = {1.0, nan, 3.0, 0.0, nan};
  EXPECT_EQ(idamax(3, strided.data(), 2), 2);  // elements 1, 3, NaN
}

TEST(Idamax, HonorsStride) {
  const std::vector<double> x = {1.0, 100.0, 3.0, 100.0, -9.0, 100.0};
  EXPECT_EQ(idamax(3, x.data(), 2), 2);  // elements 1, 3, -9
}

TEST(Scal, MatchesReference) {
  auto x = random_vec(17, 1);
  const auto x0 = x;
  dscal(17, 2.5, x.data());
  for (int i = 0; i < 17; ++i) EXPECT_DOUBLE_EQ(x[i], 2.5 * x0[i]);
}

TEST(Swap, SwapsStridedRows) {
  // Two rows of a 3x4 column-major matrix.
  std::vector<double> a = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  dswap(4, a.data() + 0, a.data() + 2, 3, 3);  // swap rows 0 and 2
  const std::vector<double> want = {3, 2, 1, 6, 5, 4, 9, 8, 7, 12, 11, 10};
  EXPECT_EQ(a, want);
}

TEST(Ger, MatchesNaiveWithStrides) {
  const int m = 7, n = 5;
  auto a = random_vec(m * n, 6);
  auto x = random_vec(2 * m, 7);
  auto y = random_vec(3 * n, 8);
  auto ref = a;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i)
      ref[j * m + i] += -2.0 * x[2 * i] * y[3 * j];
  dger(m, n, -2.0, x.data(), y.data(), a.data(), m, 2, 3);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], ref[i], 1e-12);
}

TEST(TrsvLowerUnit, SolvesAgainstMultiply) {
  const int n = 11;
  auto a = random_vec(n * n, 9);
  auto b = random_vec(n, 10);
  auto x = b;
  dtrsv_lower_unit(n, a.data(), n, x.data());
  // Verify L x == b with unit diagonal.
  for (int i = 0; i < n; ++i) {
    double acc = x[i];
    for (int j = 0; j < i; ++j) acc += a[j * n + i] * x[j];
    EXPECT_NEAR(acc, b[i], 1e-10);
  }
}

TEST(TrsvUpper, SolvesAgainstMultiply) {
  const int n = 11;
  auto a = random_vec(n * n, 11);
  for (int i = 0; i < n; ++i) a[i * n + i] += 4.0;  // well-conditioned diag
  auto b = random_vec(n, 12);
  auto x = b;
  dtrsv_upper(n, a.data(), n, x.data());
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = i; j < n; ++j) acc += a[j * n + i] * x[j];
    EXPECT_NEAR(acc, b[i], 1e-10);
  }
}

TEST(TrsmLowerUnit, MatchesColumnwiseTrsv) {
  const int n = 8, m = 5;
  auto a = random_vec(n * n, 13);
  auto b = random_vec(n * m, 14);
  auto ref = b;
  for (int c = 0; c < m; ++c) dtrsv_lower_unit(n, a.data(), n, ref.data() + c * n);
  dtrsm_lower_unit(n, m, a.data(), n, b.data(), n);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(b[i], ref[i], 1e-12);
}

struct GemmCase {
  int m, n, k;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  auto a = random_vec(m * k, 100 + m);
  auto b = random_vec(k * n, 200 + n);
  auto c = random_vec(m * n, 300 + k);
  auto ref = c;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double acc = ref[j * m + i];
      for (int p = 0; p < k; ++p) acc += a[p * m + i] * b[j * k + p];
      ref[j * m + i] = acc;
    }
  dgemm(m, n, k, 1.0, a.data(), m, b.data(), k, 1.0, c.data(), m);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], ref[i], 1e-10) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmCase{1, 1, 1}, GemmCase{4, 4, 4}, GemmCase{5, 3, 7},
                      GemmCase{16, 16, 16}, GemmCase{17, 19, 23},
                      GemmCase{25, 25, 25}, GemmCase{1, 32, 8},
                      GemmCase{32, 1, 8}, GemmCase{3, 3, 64}));

TEST(Gemm, BetaZeroOverwritesNanFree) {
  const int m = 4, n = 4, k = 4;
  auto a = random_vec(m * k, 1);
  auto b = random_vec(k * n, 2);
  std::vector<double> c(m * n, std::nan(""));
  dgemm(m, n, k, 1.0, a.data(), m, b.data(), k, 0.0, c.data(), m);
  for (const double v : c) EXPECT_FALSE(std::isnan(v));
}

TEST(Ger, AlphaZeroSkipsNanInput) {
  const int m = 5, n = 3;
  std::vector<double> x(static_cast<std::size_t>(m), std::nan(""));
  std::vector<double> y(static_cast<std::size_t>(n), std::nan(""));
  std::vector<double> a(static_cast<std::size_t>(m) * n, 1.5);
  dger(m, n, 0.0, x.data(), y.data(), a.data(), m);
  for (const double v : a) EXPECT_EQ(v, 1.5);
}

TEST(Gemm, AlphaZeroAppliesBetaOnly) {
  const int m = 4, n = 3, k = 5;
  std::vector<double> a(static_cast<std::size_t>(m) * k, std::nan(""));
  std::vector<double> b(static_cast<std::size_t>(k) * n, std::nan(""));
  std::vector<double> c(static_cast<std::size_t>(m) * n, 4.0);
  dgemm(m, n, k, 0.0, a.data(), m, b.data(), k, 0.5, c.data(), m);
  for (const double v : c) EXPECT_EQ(v, 2.0);
  dgemm(m, n, k, 0.0, a.data(), m, b.data(), k, 0.0, c.data(), m);
  for (const double v : c) EXPECT_EQ(v, 0.0);
}

TEST(Gemm, GeneralAlphaPath) {
  const int m = 6, n = 5, k = 4;
  auto a = random_vec(m * k, 21);
  auto b = random_vec(k * n, 22);
  auto c1 = random_vec(m * n, 23);
  auto c2 = c1;
  dgemm(m, n, k, -3.0, a.data(), m, b.data(), k, 1.0, c1.data(), m);
  // Reference via alpha = 1 on pre-scaled B.
  auto b3 = b;
  for (auto& v : b3) v *= -3.0;
  dgemm(m, n, k, 1.0, a.data(), m, b3.data(), k, 1.0, c2.data(), m);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-10);
}

}  // namespace
}  // namespace sstar::blas
