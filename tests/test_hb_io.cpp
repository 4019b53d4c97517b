// Tests for the Harwell-Boeing reader.
#include <gtest/gtest.h>

#include <sstream>

#include "matrix/hb_io.hpp"
#include "util/check.hpp"

namespace sstar::io {
namespace {

// A hand-assembled 4x4 RUA matrix:
//   [ 1 .  5 . ]
//   [ 2 3  .  . ]
//   [ . 4  6 . ]
//   [ . .  .  7 ]
// CSC: colptr 1 3 5 7 8; rows 1 2 2 3 1 3 4.
std::string rua_example() {
  std::ostringstream os;
  os << "Tiny RUA example                                                "
        "        TINY0001\n";
  os << "             5             1             1             2       "
        "      0\n";
  os << "RUA                       4             4             7        "
        "     0\n";
  os << "(8I4)           (8I4)           (4E16.8)\n";
  os << "   1   3   5   7   8\n";
  os << "   1   2   2   3   1   3   4\n";
  os << "  1.00000000E+00  2.00000000E+00  3.00000000E+00  4.00000000E+00\n";
  os << "  5.00000000E+00  6.00000000E+00  7.00000000E+00\n";
  return os.str();
}

TEST(HarwellBoeing, ParsesAssembledRealUnsymmetric) {
  std::istringstream in(rua_example());
  HbInfo info;
  const auto a = read_harwell_boeing(in, &info);
  EXPECT_EQ(info.type, "RUA");
  EXPECT_EQ(info.title.substr(0, 16), "Tiny RUA example");
  EXPECT_EQ(a.rows(), 4);
  EXPECT_EQ(a.cols(), 4);
  EXPECT_EQ(a.nnz(), 7);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), 4.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 6.0);
  EXPECT_DOUBLE_EQ(a.at(3, 3), 7.0);
  EXPECT_DOUBLE_EQ(a.at(3, 0), 0.0);
}

TEST(HarwellBoeing, ExpandsSymmetricStorage) {
  // 3x3 RSA, lower triangle: diag 2 2 2, (2,1)=-1, (3,2)=-1.
  std::ostringstream os;
  os << "Symmetric example                                               "
        "        SYM00001\n";
  os << "             4             1             1             2       "
        "      0\n";
  os << "RSA                       3             3             5        "
        "     0\n";
  os << "(8I4)           (8I4)           (4E16.8)\n";
  os << "   1   3   5   6\n";
  os << "   1   2   2   3   3\n";
  os << "  2.00000000E+00 -1.00000000E+00  2.00000000E+00 -1.00000000E+00\n";
  os << "  2.00000000E+00\n";
  std::istringstream in(os.str());
  const auto a = read_harwell_boeing(in);
  EXPECT_EQ(a.nnz(), 7);  // 5 stored + 2 mirrored
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 2), -1.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), -1.0);
}

TEST(HarwellBoeing, PatternMatrixGetsUnitValues) {
  std::ostringstream os;
  os << "Pattern example                                                 "
        "        PAT00001\n";
  os << "             3             1             1             0       "
        "      0\n";
  os << "PUA                       2             2             3        "
        "     0\n";
  os << "(8I4)           (8I4)\n";
  os << "   1   3   4\n";
  os << "   1   2   2\n";
  std::istringstream in(os.str());
  const auto a = read_harwell_boeing(in);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 1.0);
}

TEST(HarwellBoeing, FortranDExponentsAndTightColumns) {
  // Values packed in narrow columns with D exponents.
  std::ostringstream os;
  os << "D-exponent example                                              "
        "        DEXP0001\n";
  os << "             4             1             1             1       "
        "      0\n";
  os << "RUA                       2             2             2        "
        "     0\n";
  os << "(8I4)           (8I4)           (2D12.4)\n";
  os << "   1   2   3\n";
  os << "   1   2\n";
  os << "  1.5000D+01 -2.5000D-01\n";
  std::istringstream in(os.str());
  const auto a = read_harwell_boeing(in);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 15.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), -0.25);
}

TEST(HarwellBoeing, RejectsUnsupportedTypes) {
  auto with_type = [](const std::string& type) {
    std::string s = rua_example();
    // Replace the MXTYPE on the header card, not the "RUA" in the title.
    return s.replace(s.find("\nRUA") + 1, 3, type);
  };
  {
    std::istringstream in(with_type("CUA"));  // complex
    EXPECT_THROW(read_harwell_boeing(in), CheckError);
  }
  {
    std::istringstream in(with_type("RUE"));  // element form
    EXPECT_THROW(read_harwell_boeing(in), CheckError);
  }
}

TEST(HarwellBoeing, RejectsTruncatedData) {
  std::string s = rua_example();
  s = s.substr(0, s.rfind("  5.000"));  // drop the last value line
  std::istringstream in(s);
  EXPECT_THROW(read_harwell_boeing(in), CheckError);
}

// rua_example() with its `line`-th line (0-based) replaced.
std::string rua_with_line(int line, const std::string& text) {
  std::istringstream in(rua_example());
  std::ostringstream out;
  std::string cur;
  for (int i = 0; std::getline(in, cur); ++i)
    out << (i == line ? text : cur) << "\n";
  return out.str();
}

// Reading `hb` must throw CheckError whose message names `cause`.
void expect_rejected(const std::string& hb, const std::string& cause) {
  std::istringstream in(hb);
  try {
    read_harwell_boeing(in);
    ADD_FAILURE() << "accepted input; expected a CheckError naming "
                  << cause;
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(cause), std::string::npos)
        << e.what();
  }
}

TEST(HarwellBoeing, RejectsCorruptColumnPointers) {
  // An interior pointer beyond NNZERO + 1, and a decreasing one: both
  // would index the row/value arrays out of bounds.
  expect_rejected(rua_with_line(4, "   1  60   5   7   8"), "column 1 ");
  expect_rejected(rua_with_line(4, "   1   5   3   7   8"), "column 2 ");
  // Header counts too large for the int-indexed matrix (and for any
  // up-front allocation sized from them).
  const std::string type = "RUA" + std::string(11, ' ');
  expect_rejected(rua_with_line(2, type + "4 1000000000000000000 7 0"),
                  "NCOL");
  expect_rejected(rua_with_line(2, type + "3000000000 4 7 0"), "NROW");
  expect_rejected(rua_with_line(2, type + "4 4 1000000000000000000 0"),
                  "NNZERO");
}

}  // namespace
}  // namespace sstar::io
