// Invariant suite for the execution tracing layer (src/trace): the
// collector mechanics, the per-run structural invariants (well-nested
// per lane, monotone timestamps, task coverage against the program,
// comm totals against the transport's own stats, measured order never
// contradicting DAG conflicts), Chrome trace_event JSON round-trips,
// and the predicted-vs-measured validator — across all four SPMD
// program variants (1D compute-ahead, 1D graph-scheduled, 2D async,
// 2D sync) at ranks {1, 2, 4, 8}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "core/task_graph.hpp"
#include "exec/lu_mp.hpp"
#include "exec/lu_real.hpp"
#include "ordering/transversal.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
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

trace::TraceEvent make_event(trace::EventKind kind, double t0, double t1,
                             int k = 0, int j = 0) {
  trace::TraceEvent e;
  e.kind = kind;
  e.k = k;
  e.j = j;
  e.t0 = t0;
  e.t1 = t1;
  return e;
}

// ----------------------------------------------------------------------
// Collector mechanics.

TEST(Trace, RecordIsNoOpWithoutCollector) {
  trace::TraceCollector::record(
      make_event(trace::EventKind::kFactor, 0.0, 1.0));
  trace::TraceCollector c;
  c.install();
  c.uninstall();
  EXPECT_TRUE(c.take().events.empty());
}

TEST(Trace, SecondInstallThrows) {
  trace::TraceCollector a, b;
  a.install();
  EXPECT_THROW(b.install(), CheckError);
  a.uninstall();
  b.install();  // free again after uninstall
  b.uninstall();
}

TEST(Trace, MergesAndSortsAcrossThreads) {
  trace::TraceCollector c;
  c.install();
  auto worker = [](int lane, double base) {
    const trace::ScopedLane scoped(lane);
    const trace::ScopedTraceTask task(100 + lane);
    for (int i = 0; i < 3; ++i) {
      trace::TraceEvent e = make_event(trace::EventKind::kUpdate,
                                       base + i, base + i + 0.5, lane, i);
      trace::TraceCollector::record(e);
    }
  };
  std::thread t1(worker, 1, 10.0);
  std::thread t2(worker, 2, 0.0);
  t1.join();
  t2.join();
  c.uninstall();
  const trace::Trace tr = c.take();
  ASSERT_EQ(tr.events.size(), 6u);
  EXPECT_EQ(tr.num_lanes, 3);  // lanes 1 and 2 used; 0..2 => 3 lanes
  for (std::size_t i = 1; i < tr.events.size(); ++i)
    EXPECT_LE(tr.events[i - 1].t0, tr.events[i].t0);
  // Thread tags landed on the events.
  for (const trace::TraceEvent& e : tr.events) {
    EXPECT_EQ(e.task, 100 + e.lane);
    EXPECT_TRUE(e.lane == 1 || e.lane == 2);
  }
  EXPECT_EQ(tr.lane_events(1).size(), 3u);
  EXPECT_EQ(tr.lane_events(2).size(), 3u);
  // Collector is reusable after take().
  c.install();
  c.uninstall();
  EXPECT_TRUE(c.take().events.empty());
}

TEST(Trace, EventLabels) {
  EXPECT_EQ(trace::event_label(
                make_event(trace::EventKind::kFactor, 0, 0, 3, 3)),
            "F(3)");
  EXPECT_EQ(trace::event_label(
                make_event(trace::EventKind::kUpdate, 0, 0, 3, 7)),
            "U(3,7)");
  EXPECT_EQ(trace::event_label(
                make_event(trace::EventKind::kScale, 0, 0, 2, 5)),
            "S(2,5)");
  EXPECT_EQ(trace::event_label(
                make_event(trace::EventKind::kSend, 0, 0, 5)),
            "send(5)");
  EXPECT_EQ(trace::event_label(
                make_event(trace::EventKind::kRecvWait, 0, 0, 5)),
            "recv(5)");
}

// The sequential factorize() emits one Factor span per block and
// Scale+Update span pairs, all on lane 0, whose flop sum equals the
// factorization's exact count.
TEST(Trace, SequentialFactorizeEmitsKernelSpans) {
  const auto f = Fixture::make(80, 4, 11);
  SStarNumeric num(*f.layout);
  num.assemble(f.a);

  trace::TraceCollector c;
  c.install();
  num.factorize();
  c.uninstall();
  const trace::Trace tr = c.take();

  int factor = 0, scale = 0, update = 0;
  std::int64_t span_flops = 0;
  for (const trace::TraceEvent& e : tr.events) {
    EXPECT_EQ(e.lane, 0);
    EXPECT_GE(e.t1, e.t0);
    EXPECT_GE(e.t0, 0.0);
    span_flops += e.flops;
    if (e.kind == trace::EventKind::kFactor) ++factor;
    if (e.kind == trace::EventKind::kScale) ++scale;
    if (e.kind == trace::EventKind::kUpdate) ++update;
  }
  EXPECT_EQ(factor, f.layout->num_blocks());
  EXPECT_EQ(scale, update);
  EXPECT_EQ(tr.num_lanes, 1);
  EXPECT_EQ(span_flops, static_cast<std::int64_t>(num.stats().flops.total()));
}

// ----------------------------------------------------------------------
// Chrome trace_event JSON.

// Two lanes whose events interleave in time, listed in event_before
// order as a collected Trace holds them.
trace::Trace synthetic_trace() {
  trace::Trace tr;
  trace::TraceEvent e = make_event(trace::EventKind::kFactor, 1e-6, 5e-6,
                                   3, 3);
  e.lane = 0;
  e.task = 12;
  e.flops = 1234;
  tr.events.push_back(e);
  e = make_event(trace::EventKind::kRecvWait, 2e-6, 7e-6, 3);
  e.lane = 1;
  e.task = 19;
  e.peer = 0;
  e.bytes = 456;
  tr.events.push_back(e);
  e = make_event(trace::EventKind::kSend, 5e-6, 5e-6, 3);
  e.lane = 0;
  e.peer = 1;
  e.bytes = 456;
  e.flops = 0;
  tr.events.push_back(e);
  e = make_event(trace::EventKind::kScale, 7e-6, 8e-6, 3, 4);
  e.lane = 1;
  e.task = 19;
  e.peer = -1;
  e.bytes = 0;
  e.flops = 88;
  tr.events.push_back(e);
  e = make_event(trace::EventKind::kUpdate, 8e-6, 9e-6, 3, 4);
  e.lane = 1;
  e.task = 19;
  e.flops = 99;
  tr.events.push_back(e);
  tr.num_lanes = 2;
  return tr;
}

TEST(Trace, ChromeJsonRoundTripsLosslessly) {
  const trace::Trace tr = synthetic_trace();
  const std::string json = trace::chrome_trace_json(tr, "rank");
  const trace::Trace back = trace::parse_chrome_trace(json);
  ASSERT_EQ(back.events.size(), tr.events.size());
  EXPECT_EQ(back.num_lanes, tr.num_lanes);
  for (std::size_t i = 0; i < tr.events.size(); ++i) {
    const trace::TraceEvent& a = tr.events[i];
    const trace::TraceEvent& b = back.events[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.lane, b.lane) << i;
    EXPECT_EQ(a.task, b.task) << i;
    EXPECT_EQ(a.k, b.k) << i;
    EXPECT_EQ(a.j, b.j) << i;
    EXPECT_EQ(a.peer, b.peer) << i;
    EXPECT_EQ(a.flops, b.flops) << i;
    EXPECT_EQ(a.bytes, b.bytes) << i;
    EXPECT_NEAR(a.t0, b.t0, 1e-12) << i;
    EXPECT_NEAR(a.t1, b.t1, 1e-12) << i;
  }
  // Export is a fixed point: exporting the parsed trace reproduces the
  // document byte for byte (the golden-file property).
  EXPECT_EQ(trace::chrome_trace_json(back, "rank"), json);
}

// A document is free to list its lanes one after the other, out of time
// order; the parse restores the one global order Trace::events
// documents, which is the collector's.
TEST(Trace, ChromeJsonInterleavedLanesLoadInEventOrder) {
  const trace::Trace tr = synthetic_trace();
  trace::Trace by_lane = tr;
  std::stable_sort(by_lane.events.begin(), by_lane.events.end(),
                   [](const trace::TraceEvent& a, const trace::TraceEvent& b) {
                     return a.lane > b.lane;
                   });
  const trace::Trace back =
      trace::parse_chrome_trace(trace::chrome_trace_json(by_lane, "worker"));
  ASSERT_EQ(back.events.size(), tr.events.size());
  EXPECT_TRUE(std::is_sorted(back.events.begin(), back.events.end(),
                             trace::event_before));
  for (std::size_t i = 0; i < tr.events.size(); ++i) {
    EXPECT_EQ(back.events[i].kind, tr.events[i].kind) << i;
    EXPECT_EQ(back.events[i].lane, tr.events[i].lane) << i;
  }
  EXPECT_EQ(trace::chrome_trace_json(back, "worker"),
            trace::chrome_trace_json(tr, "worker"));
}

// A golden document written by an earlier version of the exporter must
// keep parsing — the wire format is a compatibility surface.
TEST(Trace, ChromeJsonGoldenDocumentParses) {
  const std::string golden =
      "[\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"rank 0\"}},\n"
      "{\"name\":\"F(2)\",\"cat\":\"compute\",\"ph\":\"X\",\"ts\":1.500,"
      "\"dur\":2.250,\"pid\":0,\"tid\":0,\"args\":{\"kind\":\"factor\","
      "\"task\":7,\"k\":2,\"j\":2,\"peer\":-1,\"flops\":640,\"bytes\":0}},\n"
      "{\"name\":\"send(2)\",\"cat\":\"comm\",\"ph\":\"i\",\"ts\":3.750,"
      "\"s\":\"t\",\"pid\":0,\"tid\":0,\"args\":{\"kind\":\"send\","
      "\"task\":7,\"k\":2,\"j\":-1,\"peer\":1,\"flops\":0,\"bytes\":320}}\n"
      "]\n";
  const trace::Trace tr = trace::parse_chrome_trace(golden);
  ASSERT_EQ(tr.events.size(), 2u);
  EXPECT_EQ(tr.events[0].kind, trace::EventKind::kFactor);
  EXPECT_EQ(tr.events[0].task, 7);
  EXPECT_EQ(tr.events[0].flops, 640);
  EXPECT_NEAR(tr.events[0].t0, 1.5e-6, 1e-15);
  EXPECT_NEAR(tr.events[0].t1, 3.75e-6, 1e-15);
  EXPECT_EQ(tr.events[1].kind, trace::EventKind::kSend);
  EXPECT_EQ(tr.events[1].peer, 1);
  EXPECT_EQ(tr.events[1].bytes, 320);
  EXPECT_EQ(tr.events[1].t0, tr.events[1].t1);
}

TEST(Trace, ChromeJsonParserRejectsMalformed) {
  EXPECT_THROW(trace::parse_chrome_trace(""), CheckError);
  EXPECT_THROW(trace::parse_chrome_trace("{\"ph\":\"X\"}"), CheckError);
  EXPECT_THROW(trace::parse_chrome_trace("[{\"ph\":\"X\"}"), CheckError);
  EXPECT_THROW(trace::parse_chrome_trace("[{\"ph\":\"X\"}] trailing"),
               CheckError);
  EXPECT_THROW(trace::parse_chrome_trace("[{\"ph\":\"X\",\"ts\":1}]"),
               CheckError);  // missing args
  EXPECT_THROW(
      trace::parse_chrome_trace(
          "[{\"ph\":\"X\",\"ts\":1,\"tid\":0,\"args\":{\"kind\":\"bogus\","
          "\"task\":0,\"k\":0,\"j\":0,\"peer\":0,\"flops\":0,\"bytes\":0}}]"),
      CheckError);  // unknown kind tag
  const std::string valid = trace::chrome_trace_json(synthetic_trace());
  EXPECT_THROW(
      trace::parse_chrome_trace(valid.substr(0, valid.size() / 2)),
      CheckError);  // truncated document

  // Malformed fields of an otherwise valid event: a lane outside the
  // document is named with its event (analyses index lanes by it), a
  // number with a second point or without a digit with its byte offset.
  auto event = [](const std::string& tid, const std::string& ts) {
    return "[{\"ph\":\"X\",\"ts\":" + ts + ",\"dur\":1,\"tid\":" + tid +
           ",\"args\":{\"kind\":\"factor\",\"task\":0,\"k\":0,\"j\":0,"
           "\"peer\":-1,\"flops\":0,\"bytes\":0}}]";
  };
  EXPECT_NO_THROW(trace::parse_chrome_trace(event("0", "1")));
  const std::pair<std::string, std::string> bad[] = {
      {event("-1", "1"), "event 0"},
      {event("1e12", "1"), "event 0"},
      {event("0", "1.2.3"), "byte"},
      {event("0", "-"), "byte"}};
  for (const auto& [doc, names] : bad) {
    try {
      trace::parse_chrome_trace(doc);
      ADD_FAILURE() << "accepted " << doc;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
          << e.what();
    }
  }
}

TEST(Trace, GanttTextCoversEveryLane) {
  const trace::Trace tr = synthetic_trace();
  const std::string g = trace::gantt_text(tr, 40);
  EXPECT_NE(g.find("L0 |"), std::string::npos);
  EXPECT_NE(g.find("L1 |"), std::string::npos);
  EXPECT_NE(g.find("~"), std::string::npos);  // recv wait rendered
}

// ----------------------------------------------------------------------
// Structural invariants over every program variant and rank count.

struct Variant {
  const char* name;
  bool two_d;
  Schedule1DKind kind;  // 1D only
  bool async;           // 2D only
};

sim::ParallelProgram build_variant(const Variant& v, const BlockLayout& lay,
                                   const sim::MachineModel& m) {
  return v.two_d ? build_2d_program(lay, m, v.async)
                 : build_1d_program(lay, m, v.kind);
}

void check_invariants(const Variant& v, int ranks, const Fixture& f,
                      const SStarNumeric& ref) {
  SCOPED_TRACE(::testing::Message() << v.name << " ranks=" << ranks);
  const sim::MachineModel m = sim::MachineModel::cray_t3e(ranks);
  const sim::ParallelProgram prog = build_variant(v, *f.layout, m);

  trace::TraceCollector collector;
  collector.install();
  SStarNumeric mp(*f.layout);
  const exec::MpStats st = exec::execute_program_mp(prog, f.a, mp);
  collector.uninstall();
  const trace::Trace tr = collector.take();

  // Tracing never perturbs the numerics.
  EXPECT_TRUE(exec::factors_bitwise_equal(ref, mp));

  // Timestamps: monotone, non-negative; spans well-nested per lane —
  // each rank is one thread, so its events must be totally ordered with
  // no overlap (instants may sit on span boundaries).
  ASSERT_GT(tr.events.size(), 0u);
  EXPECT_LE(tr.num_lanes, ranks);
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

  // Task coverage: the traced kernel spans hit exactly the program
  // tasks that carry kernels, with one F span per kFactor call and one
  // S + one U span per kUpdate call.
  std::map<int, std::map<trace::EventKind, int>> spans_by_task;
  for (const trace::TraceEvent& e : tr.events) {
    if (!trace::is_kernel(e.kind)) continue;
    ASSERT_GE(e.task, 0);
    ASSERT_LT(e.task, static_cast<int>(prog.num_tasks()));
    spans_by_task[e.task][e.kind] += 1;
  }
  std::set<int> expected_tasks;
  for (int t = 0; t < static_cast<int>(prog.num_tasks()); ++t) {
    int nf = 0, nu = 0;
    for (const LuTask& kc : prog.task(t).kernels)
      (kc.type == LuTask::Type::kFactor ? nf : nu) += 1;
    if (nf + nu == 0) continue;
    expected_tasks.insert(t);
    EXPECT_EQ(spans_by_task[t][trace::EventKind::kFactor], nf) << "task " << t;
    EXPECT_EQ(spans_by_task[t][trace::EventKind::kScale], nu) << "task " << t;
    EXPECT_EQ(spans_by_task[t][trace::EventKind::kUpdate], nu)
        << "task " << t;
  }
  std::set<int> traced_tasks;
  for (const auto& [t, counts] : spans_by_task) traced_tasks.insert(t);
  EXPECT_EQ(traced_tasks, expected_tasks);

  // Comm totals reconcile with the transport's own counters, and the
  // kernel flop total with the sequential factorization's exact count.
  const trace::PhaseBreakdown b = trace::phase_breakdown(tr);
  EXPECT_EQ(b.sends, st.total_messages());
  EXPECT_EQ(b.recvs, st.total_messages());
  EXPECT_EQ(b.total_sent_bytes, st.total_bytes());
  EXPECT_EQ(b.total_recv_bytes, st.total_bytes());
  EXPECT_EQ(b.total_flops,
            static_cast<std::int64_t>(ref.stats().flops.total()));

  // The measured order never contradicts the program DAG on
  // conflicting-access pairs.
  const trace::ValidationReport report =
      trace::validate_trace(prog, *f.layout, m, tr);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.measured_tasks, expected_tasks.size());
  EXPECT_GT(report.predicted_makespan, 0.0);
  EXPECT_GT(report.measured_makespan, 0.0);
}

TEST(TraceInvariants, AllVariantsAllRankCounts) {
  const Fixture f = Fixture::make(100, 4, 31, 8, 4);
  const auto ref = f.sequential();
  const Variant variants[] = {
      {"1d-ca", false, Schedule1DKind::kComputeAhead, false},
      {"1d-graph", false, Schedule1DKind::kGraph, false},
      {"2d-async", true, Schedule1DKind::kGraph, true},
      {"2d-sync", true, Schedule1DKind::kGraph, false},
  };
  for (const Variant& v : variants)
    for (const int ranks : {1, 2, 4, 8}) check_invariants(v, ranks, f, *ref);
}

// ----------------------------------------------------------------------
// Predicted-vs-measured validator.

TEST(TraceValidate, FlagsConflictingAndBenignReorderings) {
  const Fixture f = Fixture::make(60, 4, 7);
  ASSERT_GE(f.layout->num_blocks(), 2);
  // Pick a real U block (kc, jc) so the access sets are well defined.
  int kc = -1, jc = -1;
  for (int k = 0; k < f.layout->num_blocks() && kc < 0; ++k)
    for (const BlockRef& u : f.layout->u_blocks(k))
      if (u.block > k) {
        kc = k;
        jc = u.block;
        break;
      }
  ASSERT_GE(kc, 0) << "fixture has no off-diagonal U block";
  const sim::MachineModel m = sim::MachineModel::cray_t3e(2);

  // Factor(kc) -> Update(kc,jc) conflict (the update reads what the
  // factor writes); Factor(kc) and a Factor of an unrelated block are
  // dependence-free in block space.
  sim::ParallelProgram prog(2);
  sim::TaskDef d;
  d.proc = 0;
  d.seconds = 1e-6;
  d.label = "F(k)";
  d.kernels = {{LuTask::Type::kFactor, kc, kc}};
  const sim::TaskId t_f0 = prog.add_task(d);
  d.proc = 1;
  d.label = "U(k,j)";
  d.kernels = {{LuTask::Type::kUpdate, kc, jc}};
  const sim::TaskId t_u01 = prog.add_task(d);
  d.proc = 1;
  d.label = "F(j)";
  d.kernels = {{LuTask::Type::kFactor, jc, jc}};
  const sim::TaskId t_f1 = prog.add_task(d);
  prog.add_message(t_f0, t_u01, 100.0);

  auto span = [](int task, trace::EventKind kind, int k, int j, double t0,
                 double t1) {
    trace::TraceEvent e = make_event(kind, t0, t1, k, j);
    e.task = task;
    e.lane = task == 0 ? 0 : 1;
    return e;
  };

  // Measured order: U(k,j) and F(j) both ran BEFORE F(k) finished.
  // F(k) -> U(k,j) is a conflicting violation (message edge, shared
  // blocks). F(k) -> F(j) holds transitively through U(k,j) but the two
  // Factors write disjoint columns, so that pair is a benign
  // reordering. U(k,j) -> F(j) (program order on proc 1) executed in
  // order — no third violation.
  trace::Trace tr;
  tr.events.push_back(
      span(t_u01, trace::EventKind::kScale, kc, jc, 0.0, 0.1));
  tr.events.push_back(
      span(t_u01, trace::EventKind::kUpdate, kc, jc, 0.1, 0.2));
  tr.events.push_back(
      span(t_f1, trace::EventKind::kFactor, jc, jc, 0.2, 0.3));
  tr.events.push_back(
      span(t_f0, trace::EventKind::kFactor, kc, kc, 0.5, 1.0));
  tr.num_lanes = 2;

  const trace::ValidationReport report =
      trace::validate_trace(prog, *f.layout, m, tr);
  EXPECT_EQ(report.measured_tasks, 3u);
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_TRUE(report.violations[0].conflicting);
  EXPECT_EQ(report.violations[0].task_a, t_f0);
  EXPECT_EQ(report.violations[0].task_b, t_u01);
  EXPECT_FALSE(report.violations[1].conflicting);
  EXPECT_EQ(report.violations[1].task_b, t_f1);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.conflicting_violations(), 1u);
  EXPECT_NE(report.summary().find("CONFLICTING"), std::string::npos);

  // Reorder a dependence-free pair instead: add the edge F(0) -> F(1);
  // their access sets are disjoint, so the same measured trace yields a
  // benign reordering for that pair and ok() stays true once the
  // conflicting pair runs in order.
  sim::ParallelProgram prog2(2);
  d.proc = 0;
  d.label = "F(0)";
  d.kernels = {{LuTask::Type::kFactor, 0, 0}};
  const sim::TaskId p2_f0 = prog2.add_task(d);
  d.proc = 1;
  d.label = "F(1)";
  d.kernels = {{LuTask::Type::kFactor, 1, 1}};
  const sim::TaskId p2_f1 = prog2.add_task(d);
  prog2.add_dependency(p2_f0, p2_f1);

  trace::Trace tr2;
  tr2.events.push_back(span(p2_f1, trace::EventKind::kFactor, 1, 1, 0.0,
                            0.3));
  tr2.events.push_back(span(p2_f0, trace::EventKind::kFactor, 0, 0, 0.5,
                            1.0));
  tr2.num_lanes = 2;
  const trace::ValidationReport report2 =
      trace::validate_trace(prog2, *f.layout, m, tr2);
  ASSERT_EQ(report2.violations.size(), 1u);
  EXPECT_FALSE(report2.violations[0].conflicting);
  EXPECT_TRUE(report2.ok());
  EXPECT_EQ(report2.conflicting_violations(), 0u);
}

TEST(TraceValidate, TaskIdOutOfRangeThrows) {
  const Fixture f = Fixture::make(60, 4, 7);
  const sim::MachineModel m = sim::MachineModel::cray_t3e(1);
  sim::ParallelProgram prog(1);
  sim::TaskDef d;
  d.label = "F(0)";
  d.seconds = 1e-6;
  d.kernels = {{LuTask::Type::kFactor, 0, 0}};
  prog.add_task(d);
  trace::Trace tr;
  trace::TraceEvent e = make_event(trace::EventKind::kFactor, 0.0, 1.0, 0, 0);
  e.task = 99;
  tr.events.push_back(e);
  tr.num_lanes = 1;
  EXPECT_THROW(trace::validate_trace(prog, *f.layout, m, tr), CheckError);
}

// ----------------------------------------------------------------------
// Analyzer pieces on a controlled trace.

TEST(TraceAnalyze, PhaseBreakdownSplitsComputeCommIdle) {
  trace::Trace tr;
  trace::TraceEvent e = make_event(trace::EventKind::kFactor, 0.0, 2.0, 0, 0);
  e.lane = 0;
  e.flops = 100;
  e.task = 0;
  tr.events.push_back(e);
  e = make_event(trace::EventKind::kRecvWait, 0.0, 3.0, 0);
  e.lane = 1;
  e.bytes = 64;
  e.flops = 0;
  tr.events.push_back(e);
  e = make_event(trace::EventKind::kUpdate, 3.0, 4.0, 0, 1);
  e.lane = 1;
  e.flops = 50;
  e.task = 1;
  tr.events.push_back(e);
  tr.num_lanes = 2;

  const trace::PhaseBreakdown b = trace::phase_breakdown(tr);
  EXPECT_DOUBLE_EQ(b.makespan, 4.0);
  ASSERT_EQ(b.lanes.size(), 2u);
  EXPECT_DOUBLE_EQ(b.lanes[0].compute, 2.0);
  EXPECT_DOUBLE_EQ(b.lanes[0].idle, 2.0);
  EXPECT_DOUBLE_EQ(b.lanes[1].compute, 1.0);
  EXPECT_DOUBLE_EQ(b.lanes[1].comm_wait, 3.0);
  EXPECT_DOUBLE_EQ(b.lanes[1].idle, 0.0);
  EXPECT_EQ(b.total_flops, 150);
  EXPECT_EQ(b.total_recv_bytes, 64);
  EXPECT_DOUBLE_EQ(b.total_compute(), 3.0);
  const std::string table = trace::breakdown_table(b);
  EXPECT_NE(table.find("makespan"), std::string::npos);
}

TEST(TraceAnalyze, CriticalPathFollowsSendRecvMatch) {
  // Lane 0: F then send; lane 1: recv (waiting on the send) then U.
  // The realized path must cross lanes through the matched message.
  trace::Trace tr;
  trace::TraceEvent e = make_event(trace::EventKind::kFactor, 0.0, 1.0, 0, 0);
  e.lane = 0;
  tr.events.push_back(e);
  e = make_event(trace::EventKind::kSend, 1.0, 1.0, /*tag k=*/0);
  e.lane = 0;
  e.peer = 1;
  e.bytes = 10;
  tr.events.push_back(e);
  e = make_event(trace::EventKind::kRecvWait, 0.1, 1.1, 0);
  e.lane = 1;
  e.peer = 0;
  e.bytes = 10;
  tr.events.push_back(e);
  e = make_event(trace::EventKind::kUpdate, 1.1, 2.0, 0, 1);
  e.lane = 1;
  tr.events.push_back(e);
  tr.num_lanes = 2;

  const trace::CriticalPath cp = trace::realized_critical_path(tr);
  EXPECT_DOUBLE_EQ(cp.makespan, 2.0);
  ASSERT_EQ(cp.events.size(), 4u);
  EXPECT_EQ(cp.events[0].kind, trace::EventKind::kFactor);
  EXPECT_EQ(cp.events[1].kind, trace::EventKind::kSend);
  EXPECT_EQ(cp.events[2].kind, trace::EventKind::kRecvWait);
  EXPECT_EQ(cp.events[3].kind, trace::EventKind::kUpdate);
  const std::string text = trace::critical_path_text(cp);
  EXPECT_NE(text.find("F(0)"), std::string::npos);
}

TEST(TraceAnalyze, CriticalPathEndsOnCyclicSendRecvMatches) {
  // Each lane receives before it sends what the other lane receives, so
  // the send -> recv matches form a cycle; the walk must still end, and
  // visit each event once.
  const trace::Trace tr = trace::parse_chrome_trace(
      "["
      R"({"ph":"X","ts":0,"dur":1,"tid":0,"args":{"kind":"recv",)"
      R"("task":-1,"k":0,"j":-1,"peer":1,"flops":0,"bytes":8}},)"
      R"({"ph":"X","ts":0.1,"dur":1,"tid":1,"args":{"kind":"recv",)"
      R"("task":-1,"k":0,"j":-1,"peer":0,"flops":0,"bytes":8}},)"
      R"({"ph":"i","ts":2,"tid":0,"args":{"kind":"send",)"
      R"("task":-1,"k":0,"j":-1,"peer":1,"flops":0,"bytes":8}},)"
      R"({"ph":"i","ts":2.1,"tid":1,"args":{"kind":"send",)"
      R"("task":-1,"k":0,"j":-1,"peer":0,"flops":0,"bytes":8}})"
      "]");
  const trace::CriticalPath cp = trace::realized_critical_path(tr);
  EXPECT_DOUBLE_EQ(cp.makespan, 2.1e-6);
  ASSERT_EQ(cp.events.size(), 4u);
  std::set<std::pair<int, int>> seen;
  for (const trace::TraceEvent& e : cp.events)
    EXPECT_TRUE(seen.insert({e.lane, static_cast<int>(e.kind)}).second);
}

// ----------------------------------------------------------------------
// SSTAR_TEST_SEED plumbing (test_helpers).

TEST(TraceSeed, DefaultSeedUnchangedWithoutEnv) {
  unsetenv("SSTAR_TEST_SEED");
  EXPECT_EQ(testing::test_seed(42), 42u);
  EXPECT_EQ(testing::test_seed(7), 7u);
}

TEST(TraceSeed, EnvSeedMixesDeterministically) {
  setenv("SSTAR_TEST_SEED", "7", 1);
  const std::uint64_t a = testing::test_seed(42);
  const std::uint64_t b = testing::test_seed(42);
  const std::uint64_t c = testing::test_seed(43);
  EXPECT_EQ(a, b);           // deterministic per (env, default)
  EXPECT_NE(a, 42u);         // actually re-rolled
  EXPECT_NE(a, c);           // distinct fixtures stay distinct
  setenv("SSTAR_TEST_SEED", "8", 1);
  EXPECT_NE(testing::test_seed(42), a);  // env seed matters
  // The fixtures themselves re-roll: same default seed, different
  // env seed, different matrix.
  setenv("SSTAR_TEST_SEED", "7", 1);
  const SparseMatrix m7 = testing::random_sparse(30, 3, 5);
  setenv("SSTAR_TEST_SEED", "8", 1);
  const SparseMatrix m8 = testing::random_sparse(30, 3, 5);
  unsetenv("SSTAR_TEST_SEED");
  const SparseMatrix m0 = testing::random_sparse(30, 3, 5);
  EXPECT_NE(m7.nnz(), 0);
  bool differ = m7.nnz() != m8.nnz();
  if (!differ) {
    // Same structure sizes can still differ in values; compare norms.
    differ = m7.max_abs() != m8.max_abs();
  }
  EXPECT_TRUE(differ);
  EXPECT_EQ(m0.nnz(), testing::random_sparse(30, 3, 5).nnz());
}

TEST(TraceSeed, ZeroAndEmptyEnvIgnored) {
  setenv("SSTAR_TEST_SEED", "0", 1);
  EXPECT_EQ(testing::test_seed(42), 42u);
  setenv("SSTAR_TEST_SEED", "", 1);
  EXPECT_EQ(testing::test_seed(42), 42u);
  unsetenv("SSTAR_TEST_SEED");
}

}  // namespace
}  // namespace sstar
