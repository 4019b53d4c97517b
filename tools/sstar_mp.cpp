// sstar_mp — run the message-passing SPMD factorization and verify it.
//
//   ./sstar_mp MATRIX.mtx --ranks=4              1D column-block mapping
//   ./sstar_mp --suite=sherman5 --mapping=2d     2D block-cyclic grid
//   ./sstar_mp --grid=24 --ranks=8 --audit       + dynamic dependence audit
//
// Builds the requested SPMD program (1D compute-ahead / graph-scheduled
// or 2D async / sync), executes it with one thread per rank over the
// in-process transport (exec/lu_mp) — per-rank owner-only stores
// (DistBlockStore), real factor-panel sends/receives — then:
//   * prints a per-rank message/byte traffic table,
//   * factors the same matrix sequentially and verifies the merged
//     distributed factors are BITWISE-identical (exit 1 if not),
//   * fails verification if any rank still holds a cached remote panel
//     after the run (a release-protocol leak),
//   * prints the measured per-rank phase breakdown (compute / comm wait
//     / idle — the measured version of the paper's Tables 5-7 split)
//     of the traced run,
//   * checks the trace against independent counts: summed span flops
//     against the sequential reference's exact flops (the one count
//     that sees forked ranks under --transport=proc), send events and
//     bytes against the transport's counters (exit 1 on a mismatch),
//   * checks an end-to-end solve residual,
//   * with --memory, prints a per-rank store table (owned bytes, cache
//     high water, panels cached) against the sim/memory_model
//     prediction and the sequential packed-store total,
//   * with --audit (needs a -DSSTAR_AUDIT=ON build), records every
//     kernel block access during the distributed run and cross-validates
//     against the program's declared access sets and ordering; the
//     static communication audit (analysis/comm_audit: match soundness,
//     coverage, deadlock-freedom, release safety of the panel cache —
//     run BEFORE any message is sent) and the recorded-traffic
//     cross-validation (every send/recv the transport performed vs the
//     plan, in order, with peer/tag/bytes) run unconditionally,
//   * validates measured against predicted by simulating the very
//     program the ranks ran: per-task time deltas, makespan ratio, and
//     measured-order DAG violations cross-checked against declared
//     block access sets (exit 1 on a conflicting one).
//
// Flags: --suite=NAME --scale=S --grid=N --seed=S --ordering=... and
//        --max-block=N --amalg=N as in sstar_solve_cli;
//        --ranks=P, --mapping=1d|2d, --schedule=ca|graph (1D),
//        --sync (2D barrier variant), --shape=RxC (2D grid shape),
//        --alpha=A (threshold-pivoting policy, (0,1]; 1.0 = exact
//        partial pivoting — both the distributed run AND the sequential
//        reference factor under the same policy, so the bitwise check
//        certifies the policy-parameterized kernels),
//        --watchdog=SECONDS, --audit, --memory,
//        --transport=inproc|proc (how ranks are realized: threads over
//        InProcTransport mailboxes, or real OS processes over the
//        ProcTransport shared-memory segment — Linux only; factors are
//        bitwise-identical either way and the same verification
//        pipeline runs),
//        --machine=PRESET|FILE.json (machine model the program is
//        built and priced against: "t3d", "t3e", "hier4x8", or a JSON
//        spec per DESIGN.md §16; default t3e),
//        --trace=PATH (write the run's Chrome trace_event JSON, viewable
//        in chrome://tracing / ui.perfetto.dev; sstar_trace --load=PATH
//        re-analyzes it)
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "analysis/comm_audit.hpp"
#include "blas/kernel_backend.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "exec/lu_mp.hpp"
#include "exec/lu_real.hpp"
#include "matrix/generators.hpp"
#include "matrix/io.hpp"
#include "matrix/suite.hpp"
#include "sim/machine_spec.hpp"
#include "sim/memory_model.hpp"
#include "solve/solver.hpp"
#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "trace/validate.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

using namespace sstar;

int main(int argc, char** argv) {
  std::string matrix_path, suite_name;
  double scale = 1.0;
  int grid = 0;
  std::uint64_t seed = 1;
  SolverOptions opt;
  int ranks = 4;
  std::string mapping = "1d";
  std::string schedule = "ca";
  bool async = true;
  sim::Grid shape{0, 0};
  double watchdog = 120.0;
  bool audit = false;
  bool memory = false;
  std::string trace_path;
  std::string transport = "inproc";
  std::string machine_spec = "t3e";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--suite=", 0) == 0) {
      suite_name = arg.substr(8);
    } else if (arg.rfind("--scale=", 0) == 0) {
      scale = std::atof(arg.c_str() + 8);
    } else if (arg.rfind("--grid=", 0) == 0) {
      grid = std::atoi(arg.c_str() + 7);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 7));
    } else if (arg.rfind("--ordering=", 0) == 0) {
      const std::string v = arg.substr(11);
      if (v == "mindeg")
        opt.ordering = SolverOptions::Ordering::kMinDegreeAtA;
      else if (v == "nd")
        opt.ordering = SolverOptions::Ordering::kNestedDissection;
      else if (v == "rcm")
        opt.ordering = SolverOptions::Ordering::kRcm;
      else if (v == "natural")
        opt.ordering = SolverOptions::Ordering::kNatural;
      else {
        std::fprintf(stderr, "unknown ordering %s\n", v.c_str());
        return 2;
      }
    } else if (arg.rfind("--max-block=", 0) == 0) {
      opt.max_block = std::atoi(arg.c_str() + 12);
    } else if (arg.rfind("--amalg=", 0) == 0) {
      opt.amalgamation = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--ranks=", 0) == 0) {
      ranks = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--mapping=", 0) == 0) {
      mapping = arg.substr(10);
    } else if (arg.rfind("--schedule=", 0) == 0) {
      schedule = arg.substr(11);
    } else if (arg == "--sync") {
      async = false;
    } else if (arg == "--async") {
      async = true;
    } else if (arg.rfind("--shape=", 0) == 0) {
      const std::string v = arg.substr(8);
      const std::size_t x = v.find('x');
      if (x == std::string::npos) {
        std::fprintf(stderr, "--shape wants RxC, e.g. --shape=2x4\n");
        return 2;
      }
      shape.rows = std::atoi(v.substr(0, x).c_str());
      shape.cols = std::atoi(v.substr(x + 1).c_str());
    } else if (arg.rfind("--alpha=", 0) == 0) {
      opt.pivot.threshold = std::atof(arg.c_str() + 8);
      if (!opt.pivot.valid()) {
        std::fprintf(stderr, "--alpha must be in (0, 1]\n");
        return 2;
      }
    } else if (arg.rfind("--watchdog=", 0) == 0) {
      watchdog = std::atof(arg.c_str() + 11);
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--memory") {
      memory = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--transport=", 0) == 0) {
      transport = arg.substr(12);
    } else if (arg.rfind("--machine=", 0) == 0) {
      machine_spec = arg.substr(10);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    } else if (matrix_path.empty()) {
      matrix_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (matrix_path.empty() && suite_name.empty() && grid == 0) grid = 24;
  if (mapping != "1d" && mapping != "2d") {
    std::fprintf(stderr, "--mapping must be 1d or 2d\n");
    return 2;
  }
  if (schedule != "ca" && schedule != "graph") {
    std::fprintf(stderr, "--schedule must be ca or graph\n");
    return 2;
  }
  if (transport != "inproc" && transport != "proc") {
    std::fprintf(stderr, "--transport must be inproc or proc\n");
    return 2;
  }
  if (audit && transport == "proc") {
    std::fprintf(stderr,
                 "--audit records kernel block accesses in-process and "
                 "cannot observe forked rank processes; use "
                 "--transport=inproc with --audit\n");
    return 2;
  }
#ifndef SSTAR_AUDIT_ENABLED
  if (audit) {
    std::fprintf(stderr,
                 "--audit requires a -DSSTAR_AUDIT=ON build "
                 "(access recording is compiled out)\n");
    return 2;
  }
#endif

  try {
    SparseMatrix a = [&]() -> SparseMatrix {
      if (!matrix_path.empty()) return io::read_matrix_file(matrix_path);
      if (!suite_name.empty())
        return gen::suite_entry(suite_name).generate(scale, seed);
      gen::ValueOptions vo;
      vo.seed = seed;
      return gen::stencil5(grid, grid, 0.1, vo);
    }();
    std::printf("matrix: n = %d, nnz = %lld\n", a.rows(),
                static_cast<long long>(a.nnz()));
    std::printf("kernel backend: %s\n", blas::kernel_backend_summary().c_str());
    SSTAR_CHECK_MSG(a.rows() == a.cols(), "matrix must be square");

    SolverSetup setup = prepare(a, opt);
    const BlockLayout& layout = *setup.layout;
    std::printf("layout: %d column blocks\n", layout.num_blocks());
    std::printf("pivot policy: %s\n", opt.pivot.describe().c_str());

    sim::MachineModel m = sim::resolve_machine(machine_spec, ranks);
    if (shape.rows > 0) {
      SSTAR_CHECK_MSG(shape.size() == ranks,
                      "--shape " << shape.rows << "x" << shape.cols
                                 << " does not match --ranks=" << ranks);
      m = m.with_grid(shape);
    }
    std::printf("machine: %s\n", sim::machine_json(m).c_str());

    // Build the SPMD program once — shared between execution and audit.
    const sim::ParallelProgram prog =
        mapping == "2d"
            ? build_2d_program(layout, m, async)
            : build_1d_program(layout, m,
                               schedule == "ca" ? Schedule1DKind::kComputeAhead
                                                : Schedule1DKind::kGraph);
    if (mapping == "2d")
      std::printf("program: 2D %s, %d ranks (%dx%d grid), %zu tasks\n",
                  async ? "async" : "sync", ranks, m.grid.rows, m.grid.cols,
                  prog.num_tasks());
    else
      std::printf("program: 1D %s, %d ranks, %zu tasks\n",
                  schedule == "ca" ? "compute-ahead" : "graph-scheduled",
                  ranks, prog.num_tasks());

    // Static communication audit: prove the message plan sound (match
    // soundness, coverage, deadlock-freedom, release safety) BEFORE any
    // message is sent. A failure here would mean the run below could
    // hang or corrupt, so it is fatal up front.
    const analysis::CommAuditReport comm_report =
        analysis::audit_comm_plan(prog, layout);
    std::printf("static comm audit:  %s\n", comm_report.summary().c_str());
    if (!comm_report.ok()) {
      for (const analysis::CommAuditIssue& issue : comm_report.issues)
        std::printf("  !! %s\n", issue.message().c_str());
      for (const std::string& line : comm_report.deadlock_cycle)
        std::printf("  -> %s\n", line.c_str());
      return 1;
    }

#ifdef SSTAR_AUDIT_ENABLED
    analysis::AccessLog log;
    if (audit) log.install();
#endif
    exec::MpOptions mpopt;
    mpopt.watchdog_seconds = watchdog;
    if (transport == "proc")
      mpopt.transport_kind = exec::MpOptions::TransportKind::kProc;
    std::printf("transport: %s\n",
                transport == "proc" ? "proc (one OS process per rank)"
                                    : "inproc (one thread per rank)");
    // Always record the run's trace: the phase breakdown, the recorded-
    // traffic check, the flop/send reconciliation and the validation
    // below all read it.
    trace::TraceCollector collector;
    collector.install();
    SStarNumeric mp(layout);
    mp.set_pivot_policy(opt.pivot);  // every rank replica inherits this
    const exec::MpStats st =
        exec::execute_program_mp(prog, setup.permuted, mp, mpopt);
    collector.uninstall();
    const trace::Trace tr = collector.take();
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) throw CheckError("cannot write " + trace_path);
      out << trace::chrome_trace_json(tr, "rank");
      std::printf("trace: %zu event(s) written to %s\n", tr.events.size(),
                  trace_path.c_str());
    }
#ifdef SSTAR_AUDIT_ENABLED
    if (audit) log.uninstall();
#endif

    std::printf("\n%-6s %12s %14s %12s %14s\n", "rank", "msgs sent",
                "bytes sent", "msgs recvd", "bytes recvd");
    for (std::size_t r = 0; r < st.rank_stats.size(); ++r) {
      const comm::RankCommStats& s = st.rank_stats[r];
      std::printf("%-6zu %12lld %14lld %12lld %14lld\n", r,
                  static_cast<long long>(s.messages_sent),
                  static_cast<long long>(s.bytes_sent),
                  static_cast<long long>(s.messages_received),
                  static_cast<long long>(s.bytes_received));
    }
    std::printf("total  %12lld %14lld   (%.3f s wall)\n",
                static_cast<long long>(st.total_messages()),
                static_cast<long long>(st.total_bytes()), st.seconds);
    const trace::PhaseBreakdown phases = trace::phase_breakdown(tr);
    std::printf("\n%s", trace::breakdown_table(phases).c_str());

    int failures = 0;

    // Differential verification against the sequential factorization —
    // under the SAME pivot policy, so a relaxed threshold run is checked
    // against its own sequential counterpart.
    SStarNumeric ref(layout);
    ref.set_pivot_policy(opt.pivot);
    ref.assemble(setup.permuted);
    ref.factorize();
    const bool bitwise = exec::factors_bitwise_equal(ref, mp);
    std::printf("\nbitwise vs sequential:       %s\n",
                bitwise ? "IDENTICAL" : "MISMATCH");
    failures += bitwise ? 0 : 1;
    std::printf("growth factor:               %.3e\n", mp.growth_factor());
    std::printf("pivot ratio (max cmax/|p|):  %.3g\n", mp.pivot_ratio());
    std::printf("relaxed pivots:              %d of %d columns\n",
                mp.stats().relaxed_pivots, layout.n());

    // Leak detector: after a finished program every received panel must
    // have been released by its last consuming Update.
    const int leaked = st.panels_leaked();
    std::printf("panel cache leak check:      %s\n",
                leaked == 0
                    ? "CLEAN (every cached panel released)"
                    : "LEAK");
    if (leaked != 0) {
      for (std::size_t r = 0; r < st.memory.size(); ++r)
        if (st.memory[r].resident_panels > 0)
          std::printf("  !! rank %zu still holds %d cached panel(s)\n", r,
                      st.memory[r].resident_panels);
      ++failures;
    }

    // Dynamic cross-validation: what the transport actually did must be
    // exactly the statically verified plan, rank by rank, in order.
    const analysis::TrafficReport traffic =
        analysis::check_recorded_traffic(prog, layout, tr);
    std::printf("recorded traffic vs plan:    %s\n",
                traffic.summary().c_str());
    for (const analysis::TrafficIssue& issue : traffic.issues)
      std::printf("  !! %s\n", issue.message().c_str());
    failures += traffic.ok() ? 0 : 1;

    // The trace against independent counts: span flops against the
    // sequential reference's (forked ranks' BLAS counters never reach
    // this process), send events against the transport's counters.
    const auto ref_flops =
        static_cast<std::int64_t>(ref.stats().flops.total());
    const bool flops_ok = phases.total_flops == ref_flops;
    std::printf("span flops vs sequential:    %lld vs %lld: %s\n",
                static_cast<long long>(phases.total_flops),
                static_cast<long long>(ref_flops),
                flops_ok ? "ok" : "MISMATCH");
    const bool sends_ok = phases.sends == st.total_messages() &&
                          phases.total_sent_bytes == st.total_bytes();
    std::printf("send events vs transport:    %lld / %lld B vs %lld / %lld "
                "B: %s\n",
                static_cast<long long>(phases.sends),
                static_cast<long long>(phases.total_sent_bytes),
                static_cast<long long>(st.total_messages()),
                static_cast<long long>(st.total_bytes()),
                sends_ok ? "ok" : "MISMATCH");
    failures += (flops_ok ? 0 : 1) + (sends_ok ? 0 : 1);

    if (memory) {
      const sim::MpMemoryPrediction pred =
          sim::predict_mp_memory(layout, prog);
      const std::int64_t seq_bytes = ref.data().size() * 8;
      std::printf("\n%-6s %14s %14s %12s %14s %14s\n", "rank", "owned B",
                  "peak cache B", "peak panels", "peak B", "predicted B");
      bool match = true;
      std::int64_t total_peak = 0;
      for (std::size_t r = 0; r < st.memory.size(); ++r) {
        const exec::MpStats::RankMemoryStats& ms = st.memory[r];
        const sim::MpMemoryPrediction::Rank& pr = pred.ranks[r];
        total_peak += ms.peak_bytes;
        match = match && ms.peak_bytes == pr.peak_bytes;
        std::printf("%-6zu %14lld %14lld %12d %14lld %14lld\n", r,
                    static_cast<long long>(ms.owned_bytes),
                    static_cast<long long>(ms.peak_cache_bytes),
                    ms.peak_panels_cached,
                    static_cast<long long>(ms.peak_bytes),
                    static_cast<long long>(pr.peak_bytes));
      }
      std::printf("total peak %lld B = %.2fx the sequential packed store "
                  "(%lld B); prediction %s\n",
                  static_cast<long long>(total_peak),
                  seq_bytes > 0 ? static_cast<double>(total_peak) / seq_bytes
                                : 0.0,
                  static_cast<long long>(seq_bytes),
                  match ? "EXACT" : "MISMATCH");
      failures += match ? 0 : 1;
    }

    // End-to-end solve on the merged factors.
    Rng rng(seed);
    std::vector<double> b(static_cast<std::size_t>(layout.n()));
    for (double& x : b) x = rng.uniform(-1.0, 1.0);
    const std::vector<double> x = mp.solve(b);
    double rmax = 0.0;
    const std::vector<double> ax = setup.permuted.multiply(x);
    for (std::size_t i = 0; i < b.size(); ++i)
      rmax = std::max(rmax, std::abs(ax[i] - b[i]));
    std::printf("solve residual ||Ax-b||_inf: %.3e\n", rmax);
    if (!(rmax < 1e-6 * layout.n())) ++failures;

#ifdef SSTAR_AUDIT_ENABLED
    if (audit) {
      const analysis::DynamicAuditReport dyn =
          analysis::check_recorded_accesses(prog, layout, log.take_events());
      std::printf("dynamic audit (MP run):      %s\n", dyn.summary().c_str());
      for (const auto& u : dyn.undeclared)
        std::printf("  !! %s\n", u.message().c_str());
      for (const auto& v : dyn.unordered)
        std::printf("  !! %s\n", v.message().c_str());
      failures += dyn.ok() ? 0 : 1;
    }
#endif

    // Predicted vs measured: the simulator replays the program the ranks
    // ran; a conflicting order violation fails the run.
    const trace::ValidationReport validation =
        trace::validate_trace(prog, layout, m, tr);
    std::printf("\n%s", validation.summary().c_str());
    failures += validation.ok() ? 0 : 1;
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
