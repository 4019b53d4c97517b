// Fidelity tests for the benchmark-suite replicas: each matrix class
// must match the published statistics it stands in for (density and
// structural symmetry), since every experiment's credibility rests on
// these being the right kind of matrix.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "matrix/pattern_ops.hpp"
#include "matrix/suite.hpp"

namespace sstar::gen {
namespace {

struct Expectation {
  const char* name;
  double sym_lo;   // structural symmetry band
  double sym_hi;
  double density_tol;  // relative nnz/row tolerance vs paper at scale 1
};

// Print a case as its matrix name. The default printout dumps the
// struct's bytes, name pointer included, and the ctest case names built
// from it would change with every load address.
void PrintTo(const Expectation& e, std::ostream* os) { *os << e.name; }

class SuiteFidelity : public ::testing::TestWithParam<Expectation> {};

TEST_P(SuiteFidelity, DensityAndSymmetryMatchClass) {
  const auto& e = GetParam();
  const auto& entry = suite_entry(e.name);
  // Small matrices at full scale; large ones at 0.25 where boundary
  // effects still leave density representative.
  const double scale = entry.large || entry.extra ? 0.25 : 1.0;
  const auto a = entry.generate(scale, 1);

  const double sym = structural_symmetry(a);
  EXPECT_GE(sym, e.sym_lo) << e.name;
  EXPECT_LE(sym, e.sym_hi) << e.name;

  const double paper_density =
      static_cast<double>(entry.paper_nnz) / entry.paper_order;
  const double density = static_cast<double>(a.nnz()) / a.rows();
  EXPECT_NEAR(density, paper_density, e.density_tol * paper_density)
      << e.name << ": " << density << " vs paper " << paper_density;
}

INSTANTIATE_TEST_SUITE_P(
    Replicas, SuiteFidelity,
    ::testing::Values(
        Expectation{"sherman5", 0.85, 1.0, 0.15},
        Expectation{"lnsp3937", 0.5, 0.9, 0.20},
        Expectation{"lns3937", 0.5, 0.9, 0.20},
        Expectation{"sherman3", 0.4, 0.9, 0.25},
        Expectation{"jpwh991", 0.8, 1.0, 0.25},
        Expectation{"orsreg1", 0.99, 1.0, 0.05},
        Expectation{"saylr4", 0.85, 1.0, 0.10},
        Expectation{"goodwin", 0.95, 1.0, 0.20},
        Expectation{"e40r0100", 0.8, 1.0, 0.25},
        Expectation{"ex11", 0.85, 1.0, 0.30},
        Expectation{"raefsky4", 0.85, 1.0, 0.30},
        Expectation{"inaccura", 0.8, 1.0, 0.30},
        Expectation{"af23560", 0.95, 1.0, 0.25},
        Expectation{"vavasis3", 0.05, 0.45, 0.30},
        Expectation{"memplus", 0.8, 1.0, 0.35},
        Expectation{"wang3", 0.9, 1.0, 0.15}));

TEST(SuiteFidelity, LargeFlagMatchesPaperGrouping) {
  for (const char* name : {"goodwin", "e40r0100", "ex11", "raefsky4",
                           "inaccura", "af23560", "vavasis3"})
    EXPECT_TRUE(suite_entry(name).large) << name;
  for (const char* name : {"sherman5", "jpwh991", "dense1000"})
    EXPECT_FALSE(suite_entry(name).large) << name;
  EXPECT_TRUE(suite_entry("memplus").extra);
  EXPECT_TRUE(suite_entry("wang3").extra);
}

TEST(SuiteFidelity, PublishedOrdersRecordedExactly) {
  // Spot-check the published Table 1 orders the replicas must target.
  EXPECT_EQ(suite_entry("sherman5").paper_order, 3312);
  EXPECT_EQ(suite_entry("jpwh991").paper_order, 991);
  EXPECT_EQ(suite_entry("ex11").paper_order, 16614);
  EXPECT_EQ(suite_entry("vavasis3").paper_order, 41092);
  EXPECT_EQ(suite_entry("af23560").paper_order, 23560);
  EXPECT_EQ(suite_entry("raefsky4").paper_nnz, 1316789);
}

TEST(SuiteFidelity, SeedsChangeValuesNotClass) {
  const auto a = suite_entry("saylr4").generate(0.3, 1);
  const auto b = suite_entry("saylr4").generate(0.3, 2);
  EXPECT_EQ(a.rows(), b.rows());
  // Same structural class: density within a few percent.
  EXPECT_NEAR(static_cast<double>(a.nnz()), static_cast<double>(b.nnz()),
              0.1 * static_cast<double>(a.nnz()));
}

}  // namespace
}  // namespace sstar::gen
