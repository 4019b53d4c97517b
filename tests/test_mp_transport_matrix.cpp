// Cross-transport differential matrix: the SPMD runtime must produce
// BITWISE-identical factors whether its ranks are threads over
// InProcTransport mailboxes or real OS processes over the ProcTransport
// shared-memory segment — at ranks {1, 2, 4, 8}, on all four program
// variants (1d-ca, 1d-graph, 2d-async, 2d-sync). The transport seam is
// the MPI seam; this matrix is the proof that swapping what is behind
// it changes nothing observable about the numerics, the message
// volume, or the per-rank memory accounting — and that a traced
// out-of-process run still satisfies the predicted-vs-measured
// validator under the hierarchical machine model.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "exec/lu_mp.hpp"
#include "exec/lu_real.hpp"
#include "ordering/transversal.hpp"
#include "solve/solver.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "trace/validate.hpp"
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

struct Variant {
  const char* name;
  bool two_d;
  Schedule1DKind kind;  // 1D only
  bool async;           // 2D only
};

constexpr Variant kVariants[] = {
    {"1d-ca", false, Schedule1DKind::kComputeAhead, false},
    {"1d-graph", false, Schedule1DKind::kGraph, false},
    {"2d-async", true, Schedule1DKind::kGraph, true},
    {"2d-sync", true, Schedule1DKind::kGraph, false},
};

sim::ParallelProgram build_variant(const Variant& v, const BlockLayout& lay,
                                   const sim::MachineModel& m) {
  return v.two_d ? build_2d_program(lay, m, v.async)
                 : build_1d_program(lay, m, v.kind);
}

#if defined(__linux__)

TEST(MpTransportMatrix, BitwiseAcrossTransportsAllVariantsAllRanks) {
  const Fixture f = Fixture::make(100, 4, 23, 8, 4);
  const auto ref = f.sequential();
  for (const Variant& v : kVariants) {
    for (const int ranks : {1, 2, 4, 8}) {
      SCOPED_TRACE(::testing::Message() << v.name << " ranks=" << ranks);
      const sim::MachineModel m = sim::MachineModel::cray_t3e(ranks);
      const sim::ParallelProgram prog = build_variant(v, *f.layout, m);

      exec::MpOptions in_opt;  // threads + InProcTransport
      SStarNumeric in_mp(*f.layout);
      const exec::MpStats in_st =
          exec::execute_program_mp(prog, f.a, in_mp, in_opt);

      exec::MpOptions pr_opt;  // processes + ProcTransport
      pr_opt.transport_kind = exec::MpOptions::TransportKind::kProc;
      SStarNumeric pr_mp(*f.layout);
      const exec::MpStats pr_st =
          exec::execute_program_mp(prog, f.a, pr_mp, pr_opt);

      // Factors, pivots, pivot monitor: bitwise against the sequential
      // reference, hence bitwise across the two transports.
      EXPECT_TRUE(exec::factors_bitwise_equal(*ref, in_mp));
      EXPECT_TRUE(exec::factors_bitwise_equal(*ref, pr_mp));
      EXPECT_TRUE(exec::factors_bitwise_equal(in_mp, pr_mp));
      EXPECT_EQ(in_mp.pivot_of_col(), ref->pivot_of_col());
      EXPECT_EQ(pr_mp.pivot_of_col(), ref->pivot_of_col());
      EXPECT_EQ(pr_mp.pivot_magnitudes(), in_mp.pivot_magnitudes());
      EXPECT_EQ(pr_mp.pivot_colmaxes(), in_mp.pivot_colmaxes());

      // The message plan is transport-independent: same message and
      // byte totals, same per-rank memory accounting.
      EXPECT_EQ(pr_st.total_messages(), in_st.total_messages());
      EXPECT_EQ(pr_st.total_bytes(), in_st.total_bytes());
      ASSERT_EQ(pr_st.memory.size(), in_st.memory.size());
      for (std::size_t r = 0; r < pr_st.memory.size(); ++r) {
        EXPECT_EQ(pr_st.memory[r].owned_bytes, in_st.memory[r].owned_bytes);
        EXPECT_EQ(pr_st.memory[r].peak_cache_bytes,
                  in_st.memory[r].peak_cache_bytes);
        EXPECT_EQ(pr_st.memory[r].peak_panels_cached,
                  in_st.memory[r].peak_panels_cached);
        EXPECT_EQ(pr_st.memory[r].resident_panels, 0);
      }
      EXPECT_EQ(pr_st.panels_leaked(), 0);
    }
  }
}

TEST(MpTransportMatrix, EndToEndSolveMatchesSequentialBitwise) {
  const Fixture f = Fixture::make(120, 5, 43, 8, 4);
  const auto b = testing::random_vector(120, 9);
  const auto want = f.sequential()->solve(b);

  exec::MpOptions opt;
  opt.transport_kind = exec::MpOptions::TransportKind::kProc;
  const sim::MachineModel m = sim::MachineModel::cray_t3e(4);
  SStarNumeric mp(*f.layout);
  run_2d_mp(*f.layout, m, /*async=*/true, f.a, mp, opt);
  const auto got = mp.solve(b);
  for (int i = 0; i < 120; ++i) EXPECT_EQ(got[i], want[i]) << "i=" << i;
}

// A traced out-of-process run under the HIERARCHICAL machine model:
// the rank processes ship their trace events back through the result
// segment, the parent re-records them, and the merged trace must
// reconcile with the discrete-event simulation of the same program —
// the predicted-vs-measured acceptance harness of DESIGN.md §16.
TEST(MpTransportMatrix, TracedProcRunPassesValidatorUnderHierarchicalModel) {
  const Fixture f = Fixture::make(100, 4, 31, 8, 4);
  const auto ref = f.sequential();
  const sim::MachineModel m = sim::MachineModel::hier_cluster(4);
  ASSERT_GT(m.topology.nodes, 1);
  const sim::ParallelProgram prog =
      build_2d_program(*f.layout, m, /*async=*/true);

  trace::TraceCollector collector;
  collector.install();
  exec::MpOptions opt;
  opt.transport_kind = exec::MpOptions::TransportKind::kProc;
  SStarNumeric mp(*f.layout);
  const exec::MpStats st = exec::execute_program_mp(prog, f.a, mp, opt);
  collector.uninstall();
  const trace::Trace tr = collector.take();

  EXPECT_TRUE(exec::factors_bitwise_equal(*ref, mp));
  ASSERT_GT(tr.events.size(), 0u);
  EXPECT_GT(tr.num_lanes, 1);

  // Per-lane sanity on the shipped events: monotone, well-nested — each
  // rank was one PROCESS, so its spans must still be totally ordered.
  for (int lane = 0; lane < tr.num_lanes; ++lane) {
    const auto evs = tr.lane_events(lane);
    for (std::size_t i = 0; i < evs.size(); ++i) {
      EXPECT_GE(evs[i]->t0, 0.0);
      EXPECT_GE(evs[i]->t1, evs[i]->t0);
      if (i > 0) {
        EXPECT_GE(evs[i]->t0, evs[i - 1]->t1);
      }
    }
  }

  // Comm totals in the shipped trace reconcile with the transport.
  std::int64_t sends = 0;
  for (const trace::TraceEvent& e : tr.events)
    if (e.kind == trace::EventKind::kSend) ++sends;
  EXPECT_EQ(sends, st.total_messages());

  const trace::ValidationReport report =
      trace::validate_trace(prog, *f.layout, m, tr);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.measured_tasks, 0u);
  EXPECT_GT(report.predicted_makespan, 0.0);
  EXPECT_GT(report.measured_makespan, 0.0);
}

// A rank's PivotError reaches the caller as a PivotError on both
// transports, naming the column and cause the sequential loop names:
// kProc carries them across the process boundary in its result segment.
TEST(MpTransportMatrix, PivotErrorIsTypedOnBothTransports) {
  // 40 independent 2x2 blocks; block 7 is [[1,1],[1,1]], numerically
  // singular.
  std::vector<Triplet> t;
  for (int b = 0; b < 40; ++b) {
    const int r = 2 * b;
    const bool singular = b == 7;
    t.push_back({r, r, singular ? 1.0 : 4.0});
    t.push_back({r + 1, r, 1.0});
    t.push_back({r, r + 1, 1.0});
    t.push_back({r + 1, r + 1, singular ? 1.0 : 3.0});
  }
  const SparseMatrix a = SparseMatrix::from_triplets(80, 80, t);
  SolverOptions so;
  so.max_block = 2;
  const SolverSetup setup = prepare(a, so);

  int want = -1;
  try {
    SStarNumeric seq(*setup.layout);
    seq.assemble(setup.permuted);
    seq.factorize();
  } catch (const PivotError& e) {
    want = e.column();
  }
  ASSERT_GE(want, 0) << "the sequential loop did not fail";

  const sim::ParallelProgram prog = build_1d_program(
      *setup.layout, sim::MachineModel::cray_t3e(4),
      Schedule1DKind::kComputeAhead);
  for (const auto kind : {exec::MpOptions::TransportKind::kInProc,
                          exec::MpOptions::TransportKind::kProc}) {
    const bool proc = kind == exec::MpOptions::TransportKind::kProc;
    exec::MpOptions opt;
    opt.transport_kind = kind;
    SStarNumeric mp(*setup.layout);
    try {
      exec::execute_program_mp(prog, setup.permuted, mp, opt);
      ADD_FAILURE() << "singular matrix factorized, proc=" << proc;
    } catch (const PivotError& e) {
      EXPECT_EQ(e.column(), want) << "proc=" << proc;
      EXPECT_EQ(e.cause(), PivotError::Cause::kPivot) << "proc=" << proc;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped failure, proc=" << proc << ": " << e.what();
    }
  }
}

#endif  // __linux__

}  // namespace
}  // namespace sstar
