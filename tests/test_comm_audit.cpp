// Static communication auditor tests (analysis/comm_audit).
//
// Positive direction: every built SPMD program variant (1D
// compute-ahead / graph-scheduled, 2D async / sync) must prove all four
// properties — match soundness, coverage, deadlock-freedom, release
// safety — at ranks {1, 2, 4, 8} and on degenerate shapes (tall/flat
// grids, more ranks than panels). Negative direction: every mutation
// the self-test injects (dropped send, reordered recvs, corrupted tag,
// miscounted consumer, send moved behind a dependent recv) must be
// pinpointed at the exact rank/task/op, with a counterexample wait-for
// cycle printed for the deadlock case. The dynamic twin cross-validates
// transport traffic recorded by a real MP run against the plan, and
// must flag tampered recordings.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/comm_audit.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "core/task_graph.hpp"
#include "exec/lu_mp.hpp"
#include "exec/lu_real.hpp"
#include "ordering/transversal.hpp"
#include "sim/comm_plan.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "trace/trace.hpp"

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
};

sim::ParallelProgram build_1d(const Fixture& f, int ranks,
                              Schedule1DKind kind) {
  return build_1d_program(*f.layout, sim::MachineModel::cray_t3e(ranks), kind);
}

sim::ParallelProgram build_2d(const Fixture& f, int ranks, bool async) {
  const sim::MachineModel m = sim::MachineModel::cray_t3e(ranks);
  return build_2d_program(*f.layout, m, async);
}

sim::ParallelProgram build_2d_shape(const Fixture& f, sim::Grid grid,
                                    bool async) {
  const sim::MachineModel m =
      sim::MachineModel::cray_t3e(grid.size()).with_grid(grid);
  return build_2d_program(*f.layout, m, async);
}

// All four variants at one rank count, labelled for diagnostics.
std::vector<std::pair<std::string, sim::ParallelProgram>> all_variants(
    const Fixture& f, int ranks) {
  std::vector<std::pair<std::string, sim::ParallelProgram>> out;
  out.emplace_back("1D CA", build_1d(f, ranks, Schedule1DKind::kComputeAhead));
  out.emplace_back("1D graph", build_1d(f, ranks, Schedule1DKind::kGraph));
  out.emplace_back("2D async", build_2d(f, ranks, true));
  out.emplace_back("2D sync", build_2d(f, ranks, false));
  return out;
}

TEST(CommAudit, AllVariantsAllRankCountsPass) {
  const auto f = Fixture::make(140, 5, 13, 10, 4);
  for (const int ranks : {1, 2, 4, 8}) {
    for (const auto& [name, prog] : all_variants(f, ranks)) {
      const analysis::CommAuditReport report =
          analysis::audit_comm_plan(prog, *f.layout);
      EXPECT_TRUE(report.ok())
          << name << " @ " << ranks << " ranks: " << report.summary();
      EXPECT_TRUE(report.deadlock_free());
      EXPECT_EQ(report.sends, report.recvs)
          << name << " @ " << ranks << " ranks";
      EXPECT_EQ(report.matched_pairs, report.sends);
      if (ranks == 1) {
        EXPECT_EQ(report.sends, 0) << name;
      }
    }
  }
}

TEST(CommAudit, DegenerateGridShapesPass) {
  const auto f = Fixture::make(120, 4, 7, 8, 4);
  for (const sim::Grid grid :
       {sim::Grid{4, 1}, sim::Grid{1, 4}, sim::Grid{2, 1}, sim::Grid{3, 2}}) {
    for (const bool async : {true, false}) {
      const sim::ParallelProgram prog = build_2d_shape(f, grid, async);
      const analysis::CommAuditReport report =
          analysis::audit_comm_plan(prog, *f.layout);
      EXPECT_TRUE(report.ok()) << grid.rows << "x" << grid.cols
                               << (async ? " async: " : " sync: ")
                               << report.summary();
    }
  }
}

// Regression for sim/comm_plan's more-ranks-than-panels edge case: a
// panel nobody consumes remotely must yield ZERO CommOps — no
// degenerate sends to idle ranks, no self-messages — and the whole plan
// must still prove all four properties.
TEST(CommAudit, MoreRanksThanPanelsYieldsNoDegenerateOps) {
  const auto f = Fixture::make(24, 2, 5, 8, 4);  // a handful of panels
  const int ranks = 16;
  ASSERT_LT(f.layout->num_blocks(), ranks);
  for (const auto& [name, prog] : all_variants(f, ranks)) {
    const analysis::CommAuditReport report =
        analysis::audit_comm_plan(prog, *f.layout);
    EXPECT_TRUE(report.ok()) << name << ": " << report.summary();

    const auto counts = sim::panel_consumer_counts(prog);
    for (int k = 0; k < static_cast<int>(counts.size()); ++k) {
      int consumers = 0;
      for (const int c : counts[k]) consumers += c;
      if (consumers > 0) continue;
      // No remote consumer: the plan must not mention panel k at all.
      for (sim::TaskId t = 0; t < static_cast<sim::TaskId>(prog.num_tasks());
           ++t) {
        for (const sim::CommOp& op : prog.task(t).pre_comms)
          EXPECT_NE(op.k, k) << name << ": stray op for unconsumed panel";
        for (const sim::CommOp& op : prog.task(t).post_comms)
          EXPECT_NE(op.k, k) << name << ": stray op for unconsumed panel";
      }
    }
  }
}

TEST(CommAudit, SingleRankProgramHasEmptyPlan) {
  const auto f = Fixture::make(60, 3, 3);
  const sim::ParallelProgram prog = build_1d(f, 1, Schedule1DKind::kGraph);
  const analysis::CommAuditReport report =
      analysis::audit_comm_plan(prog, *f.layout);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.sends + report.recvs, 0);
  EXPECT_EQ(report.reads_checked, 0);  // every panel is owned
}

// --- mutation pinpointing ------------------------------------------------

TEST(CommAudit, DroppedSendPinpointedAtOrphanedRecv) {
  const auto f = Fixture::make(140, 5, 13, 10, 4);
  for (const std::uint64_t seed : {0u, 3u, 11u}) {
    for (const auto& [name, clean] : all_variants(f, 4)) {
      sim::ParallelProgram prog = clean;
      const analysis::CommMutation m =
          analysis::mutate_drop_send(prog, seed);
      ASSERT_TRUE(m.found) << name;
      const analysis::CommAuditReport report =
          analysis::audit_comm_plan(prog, *f.layout);
      EXPECT_FALSE(report.ok()) << name << ": " << m.what;
      EXPECT_TRUE(m.pinpointed_by(report))
          << name << ": " << m.what << "\n" << report.summary();
      bool orphan_recv = false;
      for (const analysis::CommAuditIssue& issue : report.issues)
        orphan_recv |=
            issue.kind == analysis::CommAuditIssue::Kind::kOrphanRecv;
      EXPECT_TRUE(orphan_recv) << name;
    }
  }
}

TEST(CommAudit, ReorderedRecvsPinpointedAtUncoveredTask) {
  const auto f = Fixture::make(140, 5, 13, 10, 4);
  for (const auto& [name, clean] : all_variants(f, 4)) {
    sim::ParallelProgram prog = clean;
    const analysis::CommMutation m =
        analysis::mutate_reorder_recvs(prog, 1);
    if (!m.found) continue;  // a variant may lack two-recv ranks
    const analysis::CommAuditReport report =
        analysis::audit_comm_plan(prog, *f.layout);
    EXPECT_FALSE(report.ok()) << name << ": " << m.what;
    EXPECT_TRUE(m.pinpointed_by(report))
        << name << ": " << m.what << "\n" << report.summary();
  }
}

TEST(CommAudit, CorruptedTagPinpointed) {
  const auto f = Fixture::make(140, 5, 13, 10, 4);
  for (const std::uint64_t seed : {0u, 5u}) {
    for (const auto& [name, clean] : all_variants(f, 4)) {
      sim::ParallelProgram prog = clean;
      const analysis::CommMutation m =
          analysis::mutate_corrupt_tag(prog, seed);
      ASSERT_TRUE(m.found) << name;
      const analysis::CommAuditReport report =
          analysis::audit_comm_plan(prog, *f.layout);
      EXPECT_FALSE(report.ok()) << name << ": " << m.what;
      EXPECT_TRUE(m.pinpointed_by(report))
          << name << ": " << m.what << "\n" << report.summary();
    }
  }
}

TEST(CommAudit, MiscountedConsumerPinpointed) {
  const auto f = Fixture::make(140, 5, 13, 10, 4);
  for (const std::uint64_t seed : {0u, 1u, 6u, 7u}) {  // over + under
    for (const auto& [name, prog] : all_variants(f, 4)) {
      auto counts = sim::panel_consumer_counts(prog);
      const analysis::CommMutation m =
          analysis::mutate_miscount_consumer(prog, counts, seed);
      ASSERT_TRUE(m.found) << name;
      const analysis::CommAuditReport report =
          analysis::audit_comm_plan(prog, *f.layout, counts);
      EXPECT_FALSE(report.ok()) << name << ": " << m.what;
      EXPECT_TRUE(m.pinpointed_by(report))
          << name << ": " << m.what << "\n" << report.summary();
      // The untampered counts still pass, so the mutation is the only
      // difference the auditor sees.
      EXPECT_TRUE(analysis::audit_comm_plan(prog, *f.layout).ok()) << name;
    }
  }
}

TEST(CommAudit, InjectedDeadlockYieldsCounterexampleCycle) {
  const auto f = Fixture::make(140, 5, 13, 10, 4);
  int injected = 0;
  for (const auto& [name, clean] : all_variants(f, 4)) {
    sim::ParallelProgram prog = clean;
    const analysis::CommMutation m = analysis::mutate_inject_deadlock(prog);
    if (!m.found) continue;
    ++injected;
    const analysis::CommAuditReport report =
        analysis::audit_comm_plan(prog, *f.layout);
    EXPECT_FALSE(report.deadlock_free()) << name << ": " << m.what;
    EXPECT_GE(report.deadlock_cycle.size(), 2u) << name;
    EXPECT_TRUE(m.pinpointed_by(report)) << name << ": " << m.what;
    // The cycle must alternate between at least two ranks — a
    // one-rank "cycle" would be a flattening bug, not a deadlock.
    bool multiple_ranks = false;
    for (const std::string& line : report.deadlock_cycle)
      multiple_ranks |= line.rfind(report.deadlock_cycle.front().substr(
                            0, report.deadlock_cycle.front().find(" task")),
                            0) != 0;
    EXPECT_TRUE(multiple_ranks) << name;
  }
  EXPECT_GE(injected, 1) << "no variant offered a deadlock-injection site";
}

TEST(CommAudit, SelfMessageAndBadPanelFlagged) {
  const auto f = Fixture::make(80, 4, 9);
  sim::ParallelProgram prog = build_1d(f, 4, Schedule1DKind::kGraph);
  // Find a task on rank 2 and attach a self-send and an out-of-layout
  // recv to it.
  sim::TaskId victim = -1;
  for (const sim::TaskId t : prog.proc_order(2))
    if (!prog.task(t).kernels.empty()) {
      victim = t;
      break;
    }
  ASSERT_GE(victim, 0);
  prog.mutable_task(victim).post_comms.push_back(
      {sim::CommOp::Kind::kSend, 2, 0});
  prog.mutable_task(victim).pre_comms.push_back(
      {sim::CommOp::Kind::kRecv, 0, f.layout->num_blocks() + 7});
  const analysis::CommAuditReport report =
      analysis::audit_comm_plan(prog, *f.layout);
  bool self = false, bad = false;
  for (const analysis::CommAuditIssue& issue : report.issues) {
    self |= issue.kind == analysis::CommAuditIssue::Kind::kSelfMessage &&
            issue.site.rank == 2 && issue.site.task == victim;
    bad |= issue.kind == analysis::CommAuditIssue::Kind::kBadPanel &&
           issue.site.rank == 2 && issue.site.task == victim;
  }
  EXPECT_TRUE(self) << report.summary();
  EXPECT_TRUE(bad) << report.summary();
}

// Release safety and the panel-lifetime replay must agree: a count the
// comm audit rejects is exactly one the replay sees free early (under)
// or leak (over), at the same rank and panel.
TEST(CommAudit, AgreesWithPanelLifetimeOnMiscounts) {
  const auto f = Fixture::make(140, 5, 13, 10, 4);
  const sim::ParallelProgram prog = build_1d(f, 4, Schedule1DKind::kGraph);
  const auto real_counts = sim::panel_consumer_counts(prog);
  for (const std::uint64_t seed : {1u, 0u}) {  // undercount, overcount
    auto counts = real_counts;
    const analysis::CommMutation m =
        analysis::mutate_miscount_consumer(prog, counts, seed);
    ASSERT_TRUE(m.found);
    const int real = real_counts[static_cast<std::size_t>(m.panel)]
                                [static_cast<std::size_t>(m.rank)];
    const int declared = counts[static_cast<std::size_t>(m.panel)]
                               [static_cast<std::size_t>(m.rank)];
    const analysis::CommAuditReport report =
        analysis::audit_comm_plan(prog, *f.layout, counts);
    EXPECT_FALSE(report.ok()) << m.what;
    EXPECT_TRUE(m.pinpointed_by(report)) << m.what;

    // A count released after `declared` of `real` consumes starves the
    // remaining ones; a count that never reaches zero leaks the panel.
    const bool early = declared >= 1 && declared < real;
    const auto lifetime_kind =
        early ? analysis::CommAuditIssue::Kind::kReadAfterRelease
              : analysis::CommAuditIssue::Kind::kLeak;
    const int lifetime_issues = early ? real - declared : 1;
    int mismatches = 0, lifetime = 0;
    for (const analysis::CommAuditIssue& issue : report.issues) {
      EXPECT_EQ(issue.site.rank, m.rank) << issue.message();
      EXPECT_EQ(issue.panel, m.panel) << issue.message();
      if (issue.kind == analysis::CommAuditIssue::Kind::kCountMismatch) {
        ++mismatches;
        EXPECT_EQ(issue.expected, real);
        EXPECT_EQ(issue.actual, declared);
      } else {
        EXPECT_EQ(issue.kind, lifetime_kind) << issue.message();
        ++lifetime;
      }
    }
    EXPECT_EQ(mismatches, 1) << m.what << ": " << report.summary();
    EXPECT_EQ(lifetime, lifetime_issues) << m.what << ": "
                                         << report.summary();
  }
}

// A 2D row leader forwards a panel from the pre_comms of its first
// consuming task, while the panel is surely cached. Moved behind its
// last consuming task, the forward reads a panel the refcount already
// released; the audit must name that exact (rank, task, panel).
// Update(k, j) runs on grid position (j mod p_r, j mod p_c), so no
// 4-rank grid puts two consumers in one remote row; 2x4 is the
// smallest shape with forwarding hops.
TEST(CommAudit, ForwardAfterReleaseNamesRankTaskPanel) {
  const auto f = Fixture::make(140, 5, 13, 10, 4);
  sim::ParallelProgram prog =
      build_2d_shape(f, sim::Grid{2, 4}, /*async=*/true);
  ASSERT_TRUE(analysis::audit_comm_plan(prog, *f.layout).ok());
  const std::vector<int> owner = sim::panel_owners(prog);

  // A forwarding send: a pre_comms send of a panel the rank does not own.
  int rank = -1, panel = -1, index = -1;
  sim::TaskId first = -1;
  for (int p = 0; p < prog.processors() && first < 0; ++p) {
    for (const sim::TaskId t : prog.proc_order(p)) {
      const auto& pre = prog.task(t).pre_comms;
      for (std::size_t i = 0; i < pre.size(); ++i) {
        if (pre[i].kind != sim::CommOp::Kind::kSend ||
            owner[static_cast<std::size_t>(pre[i].k)] == p)
          continue;
        rank = p;
        panel = pre[i].k;
        index = static_cast<int>(i);
        first = t;
        break;
      }
      if (first >= 0) break;
    }
  }
  ASSERT_GE(first, 0) << "2x4 program has no forwarding send";

  sim::TaskId last = -1;
  for (const sim::TaskId t : prog.proc_order(rank))
    for (const LuTask& kc : prog.task(t).kernels)
      if (kc.type == LuTask::Type::kUpdate && kc.k == panel) last = t;
  ASSERT_GE(last, 0);

  auto& pre = prog.mutable_task(first).pre_comms;
  const sim::CommOp forward = pre[static_cast<std::size_t>(index)];
  pre.erase(pre.begin() + index);
  prog.mutable_task(last).post_comms.push_back(forward);

  const analysis::CommAuditReport report =
      analysis::audit_comm_plan(prog, *f.layout);
  EXPECT_FALSE(report.ok());
  int named = 0;
  for (const analysis::CommAuditIssue& issue : report.issues) {
    if (issue.kind != analysis::CommAuditIssue::Kind::kForwardAfterRelease)
      continue;
    ++named;
    EXPECT_EQ(issue.site.rank, rank);
    EXPECT_EQ(issue.site.task, last);
    EXPECT_EQ(issue.panel, panel);
    EXPECT_FALSE(issue.site.pre);
    EXPECT_EQ(issue.site.op.peer, forward.peer);
  }
  EXPECT_EQ(named, 1) << report.summary();
}

// --- dynamic cross-validation against recorded transport traffic --------

// The recorded-traffic check is a property of the PLAN, not of what
// carries the messages: it must hold whether the ranks were threads
// over InProcTransport or OS processes over ProcTransport (whose trace
// events travel back through the result segment before the parent
// re-records them).
std::vector<exec::MpOptions::TransportKind> traffic_transports() {
  std::vector<exec::MpOptions::TransportKind> out = {
      exec::MpOptions::TransportKind::kInProc};
#if defined(__linux__)
  out.push_back(exec::MpOptions::TransportKind::kProc);
#endif
  return out;
}

TEST(CommTraffic, RecordedMpTrafficMatchesPlan) {
  const auto f = Fixture::make(120, 5, 21, 10, 4);
  for (const auto kind : traffic_transports()) {
    for (const auto& [name, prog] : all_variants(f, 4)) {
      SCOPED_TRACE(::testing::Message()
                   << name << " transport="
                   << (kind == exec::MpOptions::TransportKind::kProc
                           ? "proc"
                           : "inproc"));
      const analysis::CommAuditReport statically =
          analysis::audit_comm_plan(prog, *f.layout);
      ASSERT_TRUE(statically.ok());

      trace::TraceCollector collector;
      collector.install();
      SStarNumeric result(*f.layout);
      exec::MpOptions opt;
      opt.transport_kind = kind;
      exec::execute_program_mp(prog, f.a, result, opt);
      collector.uninstall();
      const trace::Trace tr = collector.take();

      const analysis::TrafficReport report =
          analysis::check_recorded_traffic(prog, *f.layout, tr);
      EXPECT_TRUE(report.ok()) << report.summary();
      EXPECT_EQ(report.events_checked, statically.sends + statically.recvs);
    }
  }
}

TEST(CommTraffic, TamperedRecordingIsFlagged) {
  const auto f = Fixture::make(120, 5, 21, 10, 4);
  const sim::ParallelProgram prog = build_1d(f, 4, Schedule1DKind::kGraph);
  trace::TraceCollector collector;
  collector.install();
  SStarNumeric result(*f.layout);
  exec::execute_program_mp(prog, f.a, result);
  collector.uninstall();
  const trace::Trace tr = collector.take();

  // Drop the first comm event: its rank's recorded sequence now
  // diverges from the plan at that position.
  trace::Trace dropped = tr;
  for (std::size_t i = 0; i < dropped.events.size(); ++i) {
    if (dropped.events[i].kind == trace::EventKind::kSend ||
        dropped.events[i].kind == trace::EventKind::kRecvWait) {
      dropped.events.erase(dropped.events.begin() + i);
      break;
    }
  }
  EXPECT_FALSE(
      analysis::check_recorded_traffic(prog, *f.layout, dropped).ok());

  // Re-tag one recorded send: the peer/tag/bytes no longer match.
  trace::Trace retagged = tr;
  for (trace::TraceEvent& e : retagged.events) {
    if (e.kind == trace::EventKind::kSend) {
      e.k += 1;
      break;
    }
  }
  const analysis::TrafficReport report =
      analysis::check_recorded_traffic(prog, *f.layout, retagged);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.issues.empty());
  EXPECT_GE(report.issues.front().rank, 0);
}

}  // namespace
}  // namespace sstar
