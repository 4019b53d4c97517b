// Unit tests for src/util.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace sstar {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    SSTAR_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { SSTAR_CHECK(2 + 2 == 4); }

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    const int k = r.uniform_int(-3, 3);
    EXPECT_GE(k, -3);
    EXPECT_LE(k, 3);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng r(11);
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(r.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng r(99);
  const int n = 20000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Table, FormatsAlignedColumns) {
  TextTable t("My Table");
  t.set_header({"name", "value"});
  t.add_row({"a", "1"});
  t.add_separator();
  t.add_row({"long-name", "2.5"});
  const std::string s = t.str();
  EXPECT_NE(s.find("My Table"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("value"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 3u);  // 2 rows + separator
}

TEST(Table, RejectsRowBeforeHeader) {
  TextTable t("x");
  EXPECT_THROW(t.add_row({"a"}), CheckError);
}

TEST(TableFormat, Numbers) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.1234, 1), "12.3%");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(-42), "-42");
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
}

// Every string the writer quotes reads back equal, whatever bytes it
// holds: quotes, backslashes and control characters are escaped.
TEST(JsonWriter, StringsRoundTripThroughTheParser) {
  const std::string cases[] = {"plain",  "q\"uote", "back\\slash", "bs\b",
                               "\x01one", "nl\ntab\t", "q/lab\"1.json",
                               std::string("nul\0x", 5)};
  for (const std::string& s : cases) {
    util::JsonWriter w;
    w.begin_object().field("s", s).end_object();
    EXPECT_EQ(util::parse_json(w.str()).at("s").as_string(), s) << w.str();
  }
  util::JsonWriter w;
  w.value("\b\x01");
  EXPECT_EQ(w.str(), "\"\\u0008\\u0001\"");
}

TEST(JsonWriter, NonFiniteNumbersAreNull) {
  util::JsonWriter w;
  w.value(std::vector<double>{std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::nan(""), 1.5});
  EXPECT_EQ(w.str(), "[null, null, null, 1.5]");
}

TEST(JsonWriter, DoublesComeBackBitForBit) {
  for (const double v : {0.1, 1.0 / 3.0, -0.0, 5e-324, 1e308, 1.2345678901e-6,
                         -2.5, 3.0}) {
    util::JsonWriter w;
    w.value(v);
    const double back = util::parse_json(w.str()).as_number();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(v))
        << w.str();
  }
  util::JsonWriter w;
  w.value(std::vector<long long>{-3, 0, 9007199254740993LL});
  EXPECT_EQ(w.str(), "[-3, 0, 9007199254740993]");
}

// An array whose elements are objects or arrays puts each on its own
// line; everything else stays inline.
TEST(JsonWriter, ArraysOfContainersTakeOneLinePerElement) {
  util::JsonWriter w;
  w.begin_object().field("name", "x").field("ok", true).key("runs").begin_array();
  for (int r = 0; r < 2; ++r) {
    w.begin_object().field("r", r).field("v", std::vector<int>{r, r + 1});
    w.key("inner").begin_array().begin_array().end_array().end_array();
    w.end_object();
  }
  w.end_array().key("empty").begin_object().end_object();
  w.key("n").null().end_object();
  EXPECT_EQ(w.str(),
            "{\"name\": \"x\", \"ok\": true, \"runs\": [\n"
            "  {\"r\": 0, \"v\": [0, 1], \"inner\": [\n"
            "    []\n"
            "  ]},\n"
            "  {\"r\": 1, \"v\": [1, 2], \"inner\": [\n"
            "    []\n"
            "  ]}\n"
            "], \"empty\": {}, \"n\": null}");
  EXPECT_NO_THROW(util::parse_json(w.str()));
}

TEST(JsonWriter, MisuseThrows) {
  util::JsonWriter w;
  EXPECT_THROW(w.str(), CheckError);  // nothing written
  w.begin_object();
  EXPECT_THROW(w.value(1), CheckError);  // member without a key
  EXPECT_THROW(w.end_array(), CheckError);
  EXPECT_THROW(w.str(), CheckError);  // unfinished
  w.end_object();
  EXPECT_THROW(w.begin_array(), CheckError);  // second document
  util::JsonWriter a;
  a.begin_array();
  EXPECT_THROW(a.key("k"), CheckError);
}

}  // namespace
}  // namespace sstar
