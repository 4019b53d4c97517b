// Threshold pivoting (core/pivot.hpp) — policy semantics, the alpha=1.0
// bitwise-regression matrix over every executor, the threshold property
// against independently recomputed column maxima, the growth-factor
// scalar oracle, and the wire-format / auditor guarantees for
// threshold-pivoted runs (ISSUE 9).
//
// The load-bearing contract: PivotPolicy{1.0} (the default) must be
// BITWISE-identical to the historical exact-partial-pivoting kernels on
// every executor, because the relaxed branch in factor_block is guarded
// by !policy.exact() and never executes. Everything else — monitor
// vectors, serialization, stats — rides on top of that.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "analysis/comm_audit.hpp"
#include "comm/serialize.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "core/pivot.hpp"
#include "exec/lu_real.hpp"
#include "ordering/transversal.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace sstar {
namespace {

PivotPolicy policy_of(double alpha) {
  PivotPolicy p;
  p.threshold = alpha;
  return p;
}

struct Fixture {
  SparseMatrix a;
  StaticStructure s;
  std::unique_ptr<BlockLayout> layout;

  static Fixture make(int n, int extra, std::uint64_t seed, int mb = 8,
                      int r = 4, double weak = 0.4) {
    Fixture f;
    f.a = make_zero_free_diagonal(
        testing::random_sparse(n, extra, seed, weak));
    f.s = static_symbolic_factorization(f.a);
    auto part = amalgamate(f.s, find_supernodes(f.s, mb), r, mb);
    f.layout = std::make_unique<BlockLayout>(f.s, std::move(part));
    return f;
  }

  std::unique_ptr<SStarNumeric> factor(const PivotPolicy& p) const {
    auto num = std::make_unique<SStarNumeric>(*layout);
    num->set_pivot_policy(p);
    num->assemble(a);
    num->factorize();
    return num;
  }

  /// The historical path: no set_pivot_policy call at all.
  std::unique_ptr<SStarNumeric> factor_plain() const {
    auto num = std::make_unique<SStarNumeric>(*layout);
    num->assemble(a);
    num->factorize();
    return num;
  }
};

void expect_monitor_equal(const SStarNumeric& a, const SStarNumeric& b) {
  ASSERT_EQ(a.pivot_magnitudes().size(), b.pivot_magnitudes().size());
  for (std::size_t i = 0; i < a.pivot_magnitudes().size(); ++i) {
    EXPECT_EQ(a.pivot_magnitudes()[i], b.pivot_magnitudes()[i]) << "col " << i;
    EXPECT_EQ(a.pivot_colmaxes()[i], b.pivot_colmaxes()[i]) << "col " << i;
  }
}

// ----------------------------------------------------------------------
// Policy semantics.

TEST(PivotPolicy, DefaultIsExactPartialPivoting) {
  const PivotPolicy p;
  EXPECT_EQ(p.threshold, 1.0);
  EXPECT_TRUE(p.valid());
  EXPECT_TRUE(p.exact());
  EXPECT_NE(p.describe().find("partial pivoting"), std::string::npos);
}

TEST(PivotPolicy, ValidityRange) {
  EXPECT_TRUE(policy_of(1.0).valid());
  EXPECT_TRUE(policy_of(0.5).valid());
  EXPECT_TRUE(policy_of(1e-8).valid());
  EXPECT_FALSE(policy_of(0.0).valid());
  EXPECT_FALSE(policy_of(-0.1).valid());
  EXPECT_FALSE(policy_of(1.5).valid());
  EXPECT_FALSE(policy_of(0.5).exact());
  EXPECT_NE(policy_of(0.5).describe().find("threshold"), std::string::npos);
}

TEST(PivotPolicy, NumericRejectsInvalidPolicy) {
  const auto f = Fixture::make(40, 3, 11);
  SStarNumeric num(*f.layout);
  EXPECT_THROW(num.set_pivot_policy(policy_of(0.0)), CheckError);
  EXPECT_THROW(num.set_pivot_policy(policy_of(2.0)), CheckError);
  num.set_pivot_policy(policy_of(0.25));
  EXPECT_EQ(num.pivot_policy().threshold, 0.25);
}

// ----------------------------------------------------------------------
// The alpha = 1.0 bitwise regression matrix (satellite 1): sequential,
// shared-memory threads {1,2,4,8}, and message-passing ranks {1,2,4,8}
// over all four program variants must reproduce the historical factors
// bit for bit when the policy is explicitly set to 1.0.

TEST(PivotBitwise, ExactPolicySequentialMatchesPlain) {
  for (const std::uint64_t seed : {7u, 23u, 41u}) {
    const auto f = Fixture::make(90, 4, seed);
    const auto plain = f.factor_plain();
    const auto exact = f.factor(policy_of(1.0));
    EXPECT_TRUE(exec::factors_bitwise_equal(*plain, *exact)) << "seed " << seed;
    EXPECT_EQ(plain->pivot_of_col(), exact->pivot_of_col());
    expect_monitor_equal(*plain, *exact);
    EXPECT_EQ(exact->stats().relaxed_pivots, 0);
    EXPECT_EQ(exact->pivot_ratio(), 1.0);
  }
}

TEST(PivotBitwise, ExactPolicyAcrossThreadCounts) {
  const auto f = Fixture::make(110, 4, 31);
  const auto plain = f.factor_plain();
  for (const int threads : {1, 2, 4, 8}) {
    SStarNumeric num(*f.layout);
    num.set_pivot_policy(policy_of(1.0));
    num.assemble(f.a);
    exec::factorize_parallel(num, threads);
    EXPECT_TRUE(exec::factors_bitwise_equal(*plain, num))
        << "threads=" << threads;
    EXPECT_EQ(num.stats().relaxed_pivots, 0);
    expect_monitor_equal(*plain, num);
  }
}

TEST(PivotBitwise, ExactPolicyAcrossMpVariantsAndRanks) {
  const auto f = Fixture::make(100, 4, 53);
  const auto plain = f.factor_plain();
  for (const int ranks : {1, 2, 4, 8}) {
    const sim::MachineModel m = sim::MachineModel::cray_t3e(ranks);
    const auto check = [&](SStarNumeric& mp, const char* variant) {
      EXPECT_TRUE(exec::factors_bitwise_equal(*plain, mp))
          << "ranks=" << ranks << " variant=" << variant;
      EXPECT_EQ(mp.pivot_of_col(), plain->pivot_of_col());
      expect_monitor_equal(*plain, mp);
      EXPECT_EQ(mp.stats().relaxed_pivots, 0);
    };
    {
      SStarNumeric mp(*f.layout);
      mp.set_pivot_policy(policy_of(1.0));
      run_1d_mp(*f.layout, m, Schedule1DKind::kComputeAhead, f.a, mp);
      check(mp, "1d-ca");
    }
    {
      SStarNumeric mp(*f.layout);
      mp.set_pivot_policy(policy_of(1.0));
      run_1d_mp(*f.layout, m, Schedule1DKind::kGraph, f.a, mp);
      check(mp, "1d-graph");
    }
    {
      SStarNumeric mp(*f.layout);
      mp.set_pivot_policy(policy_of(1.0));
      run_2d_mp(*f.layout, m, /*async=*/true, f.a, mp);
      check(mp, "2d-async");
    }
    {
      SStarNumeric mp(*f.layout);
      mp.set_pivot_policy(policy_of(1.0));
      run_2d_mp(*f.layout, m, /*async=*/false, f.a, mp);
      check(mp, "2d-sync");
    }
  }
}

// ----------------------------------------------------------------------
// Threshold property (satellite 2): seeded fuzz — every accepted pivot
// meets |pivot| >= alpha * colmax against an INDEPENDENTLY recomputed
// column max, and the recorded growth factor matches a scalar oracle.

// Independent recomputation of column m's candidate max from the FINAL
// factor: the stored sub-diagonal entries of L's column m are exactly
// the candidate values divided by the chosen pivot (later in-block
// swaps only permute the candidate rows among themselves, and later
// rank-1 updates touch only later columns), so
//   colmax ~= |pivot| * max(1, max_i |l_im|)
// up to the one rounding of each division.
double recomputed_colmax(const SStarNumeric& num, int m) {
  const BlockLayout& lay = num.layout();
  const int k = lay.block_of_column(m);
  const int base = lay.start(k);
  const int w = lay.width(k);
  const int ml = m - base;
  const BlockStore& data = num.data();
  double lmax = 0.0;
  const double* dcol =
      data.diag(k) + static_cast<std::ptrdiff_t>(ml) * data.diag_ld(k);
  for (int i = ml + 1; i < w; ++i) lmax = std::max(lmax, std::fabs(dcol[i]));
  const double* pcol =
      data.l_panel(k) + static_cast<std::ptrdiff_t>(ml) * data.l_ld(k);
  for (std::size_t i = 0; i < lay.panel_rows(k).size(); ++i)
    lmax = std::max(lmax, std::fabs(pcol[i]));
  return num.pivot_magnitudes()[static_cast<std::size_t>(m)] *
         std::max(1.0, lmax);
}

TEST(PivotThreshold, AcceptedPivotsMeetThresholdAgainstRecomputedMax) {
  int relaxed_total = 0;
  for (const std::uint64_t salt : {1u, 2u, 3u}) {
    const std::uint64_t seed = testing::test_seed(100 + salt);
    const auto f = Fixture::make(80 + 20 * static_cast<int>(salt % 3), 4,
                                 seed, 8, 4, /*weak=*/0.5);
    for (const double alpha : {0.9, 0.5, 0.1}) {
      const auto num = f.factor(policy_of(alpha));
      const int n = f.layout->n();
      int relaxed = 0;
      for (int m = 0; m < n; ++m) {
        const double mag =
            num->pivot_magnitudes()[static_cast<std::size_t>(m)];
        const double cm = num->pivot_colmaxes()[static_cast<std::size_t>(m)];
        ASSERT_GT(mag, 0.0) << "col " << m;
        ASSERT_LE(mag, cm) << "col " << m;
        // The threshold property proper, against the RECORDED max...
        EXPECT_GE(mag, alpha * cm * (1.0 - 1e-12))
            << "alpha=" << alpha << " col " << m << " seed " << seed;
        // ...and against the independently recomputed one.
        const double cm2 = recomputed_colmax(*num, m);
        EXPECT_NEAR(cm, cm2, 1e-10 * cm)
            << "alpha=" << alpha << " col " << m << " seed " << seed;
        EXPECT_GE(mag, alpha * cm2 * (1.0 - 1e-10));
        if (mag < cm) ++relaxed;
      }
      EXPECT_EQ(num->stats().relaxed_pivots, relaxed);
      EXPECT_LE(num->pivot_ratio(), 1.0 / alpha * (1.0 + 1e-12));
      relaxed_total += relaxed;
    }
  }
  // The weak-diagonal fixtures must actually exercise the relaxed
  // branch somewhere, or the sweep proved nothing.
  EXPECT_GT(relaxed_total, 0);
}

TEST(PivotThreshold, GrowthFactorMatchesScalarOracle) {
  const std::uint64_t seed = testing::test_seed(77);
  const auto f = Fixture::make(70, 4, seed, 8, 4, /*weak=*/0.5);
  for (const double alpha : {1.0, 0.5, 0.1}) {
    const auto num = f.factor(policy_of(alpha));
    // Scalar oracle: rebuild the conventional PA = LU triple densely and
    // take max |u_ij| / max |a_ij| by hand.
    std::vector<int> perm;
    DenseMatrix l, u;
    num->reconstruct_pa_lu(&perm, &l, &u);
    double umax = 0.0;
    for (int j = 0; j < u.cols(); ++j)
      for (int i = 0; i < u.rows(); ++i)
        umax = std::max(umax, std::fabs(u(i, j)));
    const double amax = f.a.max_abs();
    ASSERT_GT(amax, 0.0);
    const double oracle = umax / amax;
    EXPECT_NEAR(num->growth_factor(), oracle, 1e-12 * oracle)
        << "alpha=" << alpha;
    EXPECT_GE(num->growth_factor(), 1.0 - 1e-12);
  }
}

TEST(PivotThreshold, RelaxationNeverIncreasesInterchanges) {
  const std::uint64_t seed = testing::test_seed(123);
  const auto f = Fixture::make(100, 4, seed, 8, 4, /*weak=*/0.5);
  const auto exact = f.factor(policy_of(1.0));
  const auto relaxed = f.factor(policy_of(0.1));
  // Every relaxed-kept diagonal is one fewer physical interchange; the
  // counts must reconcile column for column, not just in aggregate.
  EXPECT_EQ(relaxed->stats().off_diagonal_pivots + 0,
            [&] {
              int off = 0;
              const int n = f.layout->n();
              for (int m = 0; m < n; ++m)
                if (relaxed->pivot_of_col()[static_cast<std::size_t>(m)] != m)
                  ++off;
              return off;
            }());
  EXPECT_GT(relaxed->stats().relaxed_pivots, 0);
  EXPECT_LT(relaxed->stats().off_diagonal_pivots,
            exact->stats().off_diagonal_pivots);
}

// A relaxed threshold must stay bitwise-deterministic ACROSS executors:
// one policy, three execution paths, identical bits (Theorem 1 holds
// under any policy, so the task DAG and message plans are unchanged).
TEST(PivotThreshold, ThresholdFactorsBitwiseAcrossExecutors) {
  const std::uint64_t seed = testing::test_seed(55);
  const auto f = Fixture::make(90, 4, seed, 8, 4, /*weak=*/0.5);
  const PivotPolicy p = policy_of(0.5);
  const auto ref = f.factor(p);
  EXPECT_GT(ref->stats().relaxed_pivots, 0);

  for (const int threads : {2, 4}) {
    SStarNumeric num(*f.layout);
    num.set_pivot_policy(p);
    num.assemble(f.a);
    exec::factorize_parallel(num, threads);
    EXPECT_TRUE(exec::factors_bitwise_equal(*ref, num))
        << "threads=" << threads;
  }
  const sim::MachineModel m = sim::MachineModel::cray_t3e(4);
  {
    SStarNumeric mp(*f.layout);
    mp.set_pivot_policy(p);
    run_1d_mp(*f.layout, m, Schedule1DKind::kComputeAhead, f.a, mp);
    EXPECT_TRUE(exec::factors_bitwise_equal(*ref, mp));
    expect_monitor_equal(*ref, mp);
    EXPECT_EQ(mp.stats().relaxed_pivots, ref->stats().relaxed_pivots);
  }
  {
    SStarNumeric mp(*f.layout);
    mp.set_pivot_policy(p);
    run_2d_mp(*f.layout, m, /*async=*/true, f.a, mp);
    EXPECT_TRUE(exec::factors_bitwise_equal(*ref, mp));
    expect_monitor_equal(*ref, mp);
  }
}

// ----------------------------------------------------------------------
// Wire format: the pivot monitor rides the Factor(k) panel payload.

struct SerializeFixture {
  Fixture f;
  std::unique_ptr<SStarNumeric> sender;
  int k = 0;

  static SerializeFixture make(double alpha) {
    SerializeFixture sf;
    sf.f = Fixture::make(80, 4, testing::test_seed(91), 8, 4, /*weak=*/0.5);
    sf.sender = sf.f.factor(policy_of(alpha));
    sf.k = sf.f.layout->num_blocks() - 1;
    EXPECT_GT(sf.f.layout->start(sf.k), 0);
    return sf;
  }

  std::unique_ptr<SStarNumeric> receiver() const {
    auto num = std::make_unique<SStarNumeric>(*f.layout);
    num->assemble(f.a);
    return num;
  }

  // Byte offset of the monitor-magnitude array for block k: header (16)
  // + w pivot int32s.
  std::size_t monitor_offset() const {
    return 16 + static_cast<std::size_t>(f.layout->width(k)) * 4;
  }
};

TEST(PivotSerialize, MonitorRoundTrips) {
  const SerializeFixture sf = SerializeFixture::make(0.5);
  const auto bytes = comm::serialize_factor_panel(*sf.sender, sf.k);
  EXPECT_EQ(bytes.size(), comm::factor_panel_bytes(*sf.f.layout, sf.k));
  const auto num = sf.receiver();
  comm::apply_factor_panel(*num, sf.k, bytes.data(), bytes.size());
  const int base = sf.f.layout->start(sf.k);
  for (int i = 0; i < sf.f.layout->width(sf.k); ++i) {
    const std::size_t m = static_cast<std::size_t>(base + i);
    EXPECT_EQ(num->pivot_magnitudes()[m], sf.sender->pivot_magnitudes()[m]);
    EXPECT_EQ(num->pivot_colmaxes()[m], sf.sender->pivot_colmaxes()[m]);
  }
}

TEST(PivotSerialize, ForgedMonitorRejectedBeforeStoreWrites) {
  const SerializeFixture sf = SerializeFixture::make(0.5);
  const int base = sf.f.layout->start(sf.k);
  const auto expect_rejected = [&](std::vector<std::uint8_t> bytes,
                                   double forged_mag) {
    std::memcpy(bytes.data() + sf.monitor_offset(), &forged_mag,
                sizeof forged_mag);
    const auto num = sf.receiver();
    const double before = num->data().value_at(base, base);
    try {
      comm::apply_factor_panel(*num, sf.k, bytes.data(), bytes.size());
      FAIL() << "forged monitor (|pivot| = " << forged_mag << ") applied";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("pivot monitor"),
                std::string::npos)
          << "diagnostic was: " << e.what();
    }
    // All-or-nothing: the rejected payload wrote no factor data.
    EXPECT_EQ(num->data().value_at(base, base), before);
  };
  const auto bytes = comm::serialize_factor_panel(*sf.sender, sf.k);
  expect_rejected(bytes, 0.0);    // no pivot is ever zero
  expect_rejected(bytes, -1.0);   // magnitudes are absolute values
  expect_rejected(bytes, 1e300);  // cannot exceed the column max
  const double nan = std::nan("");
  expect_rejected(bytes, nan);    // NaN fails both comparisons
}

// Mutation negative (satellite 6): under a RELAXED policy the Theorem-1
// confinement check still pinpoints an out-of-panel pivot row — the
// candidate set is policy-independent, so the apply-side auditor needs
// no policy knowledge.
TEST(PivotSerialize, OutOfPanelPivotPinpointedUnderThresholdPolicy) {
  const SerializeFixture sf = SerializeFixture::make(0.5);
  auto bytes = comm::serialize_factor_panel(*sf.sender, sf.k);
  const std::int32_t forged = 0;  // row 0 is above this block's range
  std::memcpy(bytes.data() + 16, &forged, sizeof forged);
  const auto num = sf.receiver();
  const int base = sf.f.layout->start(sf.k);
  try {
    comm::apply_factor_panel(*num, sf.k, bytes.data(), bytes.size());
    FAIL() << "forged out-of-panel pivot applied";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    // The diagnostic names the column, the row, and the confinement.
    EXPECT_NE(what.find("pivot of column " + std::to_string(base)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("outside the panel"), std::string::npos) << what;
  }
  for (int i = 0; i < sf.f.layout->width(sf.k); ++i)
    EXPECT_EQ(num->pivot_of_col()[static_cast<std::size_t>(base + i)], -1);
}

// ----------------------------------------------------------------------
// Auditors (satellite 6): the declared access sets and message plans
// are policy-independent — Theorem 1 confines pivoting to the same
// candidate rows under any threshold — so the static dependence audit
// and the full static comm audit must hold verbatim for programs that
// will execute under a relaxed policy, and a threshold-pivoted MP run
// must sail through the apply-side confinement checks.

TEST(PivotAudit, DependenceAuditCoversThresholdPivotedRuns) {
  const auto f = Fixture::make(90, 4, 17, 8, 4, /*weak=*/0.5);
  const LuTaskGraph graph(*f.layout);
  const analysis::AuditReport rep = analysis::audit_task_graph(graph);
  EXPECT_TRUE(rep.ok()) << rep.summary();

  // The same DAG drives every policy; prove a relaxed execution is
  // covered by running one and checking the factors came out sane.
  SStarNumeric num(*f.layout);
  num.set_pivot_policy(policy_of(0.25));
  num.assemble(f.a);
  exec::factorize_parallel(graph, num, 4);
  const auto ref = f.factor(policy_of(0.25));
  EXPECT_TRUE(exec::factors_bitwise_equal(*ref, num));
}

TEST(PivotAudit, CommAuditCoversThresholdPivotedPrograms) {
  const auto f = Fixture::make(90, 4, 29, 8, 4, /*weak=*/0.5);
  const sim::MachineModel m = sim::MachineModel::cray_t3e(4);
  const LuTaskGraph graph(*f.layout);
  const sched::Schedule1D sched =
      sched::compute_ahead_schedule(graph, m.processors);
  const sim::ParallelProgram prog =
      build_1d_program(graph, sched, m);

  // Static audits: both hold for the program regardless of the policy
  // its kernels will run under.
  const analysis::CommAuditReport comm = analysis::audit_comm_plan(
      prog, *f.layout);
  EXPECT_TRUE(comm.ok()) << comm.summary();
  const analysis::AuditReport dep = analysis::audit_program(prog, *f.layout);
  EXPECT_TRUE(dep.ok()) << dep.summary();

  // And the audited plan executes a relaxed run to the same bits as the
  // sequential relaxed factorization (apply-side Theorem-1 checks run
  // on every received panel along the way).
  SStarNumeric mp(*f.layout);
  mp.set_pivot_policy(policy_of(0.25));
  run_1d_mp(*f.layout, m, Schedule1DKind::kComputeAhead, f.a, mp);
  const auto ref = f.factor(policy_of(0.25));
  EXPECT_TRUE(exec::factors_bitwise_equal(*ref, mp));
  EXPECT_GT(ref->stats().relaxed_pivots, 0);
}

}  // namespace
}  // namespace sstar
