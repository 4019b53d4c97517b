// Differential test harness for the message-passing SPMD runtime
// (exec/lu_mp): on randomly generated sparse matrices, the distributed
// factorization — private per-rank replicas, real factor-panel
// sends/receives, NaN-poisoned unowned storage — must produce factors
// BITWISE-identical to the sequential factorize() and to the
// shared-memory executor's run of the LU task DAG, on both the 1D
// column-block programs and the 2D block-cyclic pipelined program, at
// every tested rank count. An
// end-to-end solve on the merged factors must hit sequential residual
// quality exactly (same bits in, same bits out).
//
// The poisoning makes this a distribution-honesty test, not just a
// determinism test: if any kernel on any rank read a block the comm
// plan never delivered, NaNs would spread into the factors and the
// bitwise comparison would fail.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "comm/serialize.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "exec/lu_real.hpp"
#include "ordering/transversal.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace sstar {
namespace {

struct Fixture {
  SparseMatrix a;
  StaticStructure s;
  std::unique_ptr<BlockLayout> layout;

  static Fixture make(int n, int extra, std::uint64_t seed, int mb = 8,
                      int r = 4) {
    Fixture f;
    f.a = make_zero_free_diagonal(testing::random_sparse(n, extra, seed));
    f.s = static_symbolic_factorization(f.a);
    auto part = amalgamate(f.s, find_supernodes(f.s, mb), r, mb);
    f.layout = std::make_unique<BlockLayout>(f.s, std::move(part));
    return f;
  }

  std::unique_ptr<SStarNumeric> sequential() const {
    auto num = std::make_unique<SStarNumeric>(*layout);
    num->assemble(a);
    num->factorize();
    return num;
  }
};

void expect_stats_consistent(const exec::MpStats& st) {
  std::int64_t sent = 0, received = 0, bytes_out = 0, bytes_in = 0;
  for (const comm::RankCommStats& r : st.rank_stats) {
    sent += r.messages_sent;
    received += r.messages_received;
    bytes_out += r.bytes_sent;
    bytes_in += r.bytes_received;
  }
  // Every sent panel is consumed exactly once (recv-at-first-use).
  EXPECT_EQ(sent, received);
  EXPECT_EQ(bytes_out, bytes_in);
  EXPECT_EQ(st.total_messages(), sent);
  EXPECT_EQ(st.total_bytes(), bytes_out);
}

TEST(MpDifferential, Fuzz1DAgainstSequentialAndSharedMemory) {
  int checked = 0;
  for (const std::uint64_t seed : {3u, 19u, 71u}) {
    const int n = 60 + 30 * static_cast<int>(seed % 4);
    const auto f = Fixture::make(n, 4, seed, 8, 4);
    const auto ref = f.sequential();
    // Shared-memory path: the LU task DAG on two workers.
    SStarNumeric sm(*f.layout);
    sm.assemble(f.a);
    exec::factorize_parallel(sm, 2);
    for (const int ranks : {2, 4}) {
      const sim::MachineModel m = sim::MachineModel::cray_t3e(ranks);
      for (const auto kind :
           {Schedule1DKind::kComputeAhead, Schedule1DKind::kGraph}) {
        // Message-passing path.
        SStarNumeric mp(*f.layout);
        const exec::MpStats st = run_1d_mp(*f.layout, m, kind, f.a, mp);
        EXPECT_TRUE(exec::factors_bitwise_equal(*ref, mp))
            << "seed=" << seed << " ranks=" << ranks << " kind="
            << (kind == Schedule1DKind::kComputeAhead ? "CA" : "graph");
        EXPECT_EQ(mp.pivot_of_col(), ref->pivot_of_col());
        EXPECT_GT(st.total_messages(), 0);
        expect_stats_consistent(st);
        EXPECT_TRUE(exec::factors_bitwise_equal(sm, mp));
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 3 * 2 * 2);
}

TEST(MpDifferential, Fuzz2DAgainstSequentialAndSharedMemory) {
  for (const std::uint64_t seed : {5u, 29u}) {
    const auto f = Fixture::make(100, 4, seed, 8, 4);
    const auto ref = f.sequential();
    SStarNumeric sm(*f.layout);
    sm.assemble(f.a);
    exec::factorize_parallel(sm, 2);
    for (const int ranks : {2, 4}) {
      const sim::MachineModel m = sim::MachineModel::cray_t3e(ranks);
      for (const bool async : {true, false}) {
        SStarNumeric mp(*f.layout);
        const exec::MpStats st = run_2d_mp(*f.layout, m, async, f.a, mp);
        EXPECT_TRUE(exec::factors_bitwise_equal(*ref, mp))
            << "seed=" << seed << " ranks=" << ranks
            << (async ? " async" : " sync");
        EXPECT_EQ(mp.pivot_of_col(), ref->pivot_of_col());
        expect_stats_consistent(st);
        EXPECT_TRUE(exec::factors_bitwise_equal(sm, mp));
      }
    }
  }
}

TEST(MpDifferential, EndToEndSolveMatchesSequentialBitwise) {
  const auto f = Fixture::make(120, 5, 43, 8, 4);
  const auto b = testing::random_vector(120, 9);
  const auto ref = f.sequential();
  const auto want = ref->solve(b);
  const double ref_residual = testing::solve_residual(f.a, want, b);
  EXPECT_LT(ref_residual, 1e-10);

  const sim::MachineModel m = sim::MachineModel::cray_t3e(4);
  SStarNumeric mp(*f.layout);
  run_1d_mp(*f.layout, m, Schedule1DKind::kComputeAhead, f.a, mp);
  const auto got = mp.solve(b);
  for (int i = 0; i < 120; ++i) EXPECT_EQ(got[i], want[i]) << "i=" << i;
  EXPECT_EQ(testing::solve_residual(f.a, got, b), ref_residual);

  SStarNumeric mp2(*f.layout);
  run_2d_mp(*f.layout, m, /*async=*/true, f.a, mp2);
  const auto got2 = mp2.solve(b);
  for (int i = 0; i < 120; ++i) EXPECT_EQ(got2[i], want[i]) << "i=" << i;
}

// The broadcast volume is predictable: each panel with at least one
// remote consumer moves serialized-panel-sized messages, and the 1D
// flat fan-out sends owner -> each consuming rank exactly once.
TEST(MpDifferential, MessageVolumeMatchesPlan) {
  const auto f = Fixture::make(90, 4, 57, 8, 4);
  const sim::MachineModel m = sim::MachineModel::cray_t3e(3);
  SStarNumeric mp(*f.layout);
  const exec::MpStats st =
      run_1d_mp(*f.layout, m, Schedule1DKind::kComputeAhead, f.a, mp);

  // With the cyclic 1D mapping, panel k can reach at most ranks-1
  // remote consumers; every message is one serialized panel.
  std::int64_t max_bytes = 0;
  for (int k = 0; k < f.layout->num_blocks(); ++k)
    max_bytes += 2 * static_cast<std::int64_t>(
                         comm::factor_panel_bytes(*f.layout, k));
  EXPECT_GT(st.total_bytes(), 0);
  EXPECT_LE(st.total_bytes(), max_bytes);
  EXPECT_LE(st.total_messages(),
            static_cast<std::int64_t>(f.layout->num_blocks()) * 2);
}

// Tracing must be a pure observer: with a collector installed, both MP
// program families still produce factors bitwise-identical to the
// sequential ones, and the trace is non-trivial.
TEST(MpDifferential, TracingOnProducesBitwiseIdenticalFactors) {
  const auto f = Fixture::make(110, 4, 67, 8, 4);
  const auto ref = f.sequential();
  const sim::MachineModel m = sim::MachineModel::cray_t3e(4);

  trace::TraceCollector collector;
  collector.install();
  SStarNumeric mp1(*f.layout);
  run_1d_mp(*f.layout, m, Schedule1DKind::kGraph, f.a, mp1);
  SStarNumeric mp2(*f.layout);
  run_2d_mp(*f.layout, m, /*async=*/true, f.a, mp2);
  collector.uninstall();
  const trace::Trace tr = collector.take();

  EXPECT_TRUE(exec::factors_bitwise_equal(*ref, mp1));
  EXPECT_TRUE(exec::factors_bitwise_equal(*ref, mp2));
  EXPECT_EQ(mp1.pivot_of_col(), ref->pivot_of_col());
  EXPECT_EQ(mp2.pivot_of_col(), ref->pivot_of_col());
  EXPECT_GT(tr.events.size(), 0u);
  EXPECT_GT(tr.num_lanes, 1);
}

// ----------------------------------------------------------------------
// Negative paths of the factor-panel wire format (comm/serialize): a
// corrupted or mismatched payload must fail loudly with a diagnostic
// naming the problem, never be applied quietly.

void expect_check_failure(SStarNumeric& num, int k,
                          const std::vector<std::uint8_t>& bytes,
                          const std::string& needle) {
  try {
    comm::apply_factor_panel(num, k, bytes.data(), bytes.size());
    FAIL() << "expected CheckError containing \"" << needle << "\"";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
  }
}

struct SerializeFixture {
  Fixture f;
  std::unique_ptr<SStarNumeric> sender;
  int k = 0;  // a block with base > 0 so out-of-panel rows exist

  static SerializeFixture make() {
    SerializeFixture sf;
    sf.f = Fixture::make(80, 4, 91, 8, 4);
    sf.sender = sf.f.sequential();
    sf.k = sf.f.layout->num_blocks() - 1;
    EXPECT_GT(sf.f.layout->start(sf.k), 0);
    return sf;
  }

  std::unique_ptr<SStarNumeric> receiver() const {
    auto num = std::make_unique<SStarNumeric>(*f.layout);
    num->assemble(f.a);
    return num;
  }
};

TEST(MpSerialize, RoundTripAppliesCleanly) {
  const SerializeFixture sf = SerializeFixture::make();
  const auto bytes = comm::serialize_factor_panel(*sf.sender, sf.k);
  EXPECT_EQ(bytes.size(), comm::factor_panel_bytes(*sf.f.layout, sf.k));
  const auto num = sf.receiver();
  comm::apply_factor_panel(*num, sf.k, bytes.data(), bytes.size());
  const int base = sf.f.layout->start(sf.k);
  for (int i = 0; i < sf.f.layout->width(sf.k); ++i)
    EXPECT_EQ(num->pivot_of_col()[static_cast<std::size_t>(base + i)],
              sf.sender->pivot_of_col()[static_cast<std::size_t>(base + i)]);
}

TEST(MpSerialize, TruncatedBufferRejected) {
  const SerializeFixture sf = SerializeFixture::make();
  auto bytes = comm::serialize_factor_panel(*sf.sender, sf.k);
  bytes.pop_back();
  const auto num = sf.receiver();
  expect_check_failure(*num, sf.k, bytes, "bytes, expected");
  expect_check_failure(*num, sf.k, {}, "bytes, expected");
}

TEST(MpSerialize, CorruptedMagicRejected) {
  const SerializeFixture sf = SerializeFixture::make();
  auto bytes = comm::serialize_factor_panel(*sf.sender, sf.k);
  bytes[0] ^= 0xFF;
  const auto num = sf.receiver();
  expect_check_failure(*num, sf.k, bytes, "bad magic");
}

TEST(MpSerialize, WrongBlockTagRejected) {
  const SerializeFixture sf = SerializeFixture::make();
  auto bytes = comm::serialize_factor_panel(*sf.sender, sf.k);
  // Header field h.k lives at byte offset 4.
  const std::int32_t wrong = sf.k + 1;
  std::memcpy(bytes.data() + 4, &wrong, sizeof wrong);
  const auto num = sf.receiver();
  expect_check_failure(*num, sf.k, bytes,
                       "tagged for block " + std::to_string(wrong));
}

TEST(MpSerialize, DimensionMismatchRejected) {
  const SerializeFixture sf = SerializeFixture::make();
  auto bytes = comm::serialize_factor_panel(*sf.sender, sf.k);
  // Header field h.w lives at byte offset 8: claim one more column than
  // the receiver's layout carries for this block.
  const std::int32_t w = sf.f.layout->width(sf.k) + 1;
  std::memcpy(bytes.data() + 8, &w, sizeof w);
  const auto num = sf.receiver();
  expect_check_failure(*num, sf.k, bytes, "header claims");
}

TEST(MpSerialize, ForgedPivotRowRejected) {
  const SerializeFixture sf = SerializeFixture::make();
  auto bytes = comm::serialize_factor_panel(*sf.sender, sf.k);
  // Pivot entries start at byte offset 16. Row 0 is above this block's
  // diagonal range (base > 0) and can never be one of its panel rows,
  // so the payload must be rejected BEFORE any data reaches the
  // receiver's store.
  const std::int32_t forged = 0;
  std::memcpy(bytes.data() + 16, &forged, sizeof forged);
  const auto num = sf.receiver();
  const double before = num->data().value_at(sf.f.layout->start(sf.k),
                                             sf.f.layout->start(sf.k));
  expect_check_failure(*num, sf.k, bytes, "outside the panel");
  // The rejected payload wrote nothing: storage still holds A's value.
  EXPECT_EQ(num->data().value_at(sf.f.layout->start(sf.k),
                                 sf.f.layout->start(sf.k)),
            before);
  for (int i = 0; i < sf.f.layout->width(sf.k); ++i)
    EXPECT_EQ(num->pivot_of_col()[static_cast<std::size_t>(
                  sf.f.layout->start(sf.k) + i)],
              -1);
}

}  // namespace
}  // namespace sstar
