// sstar_trace — trace a message-passing factorization and analyze it.
//
//   ./sstar_trace --grid=14 --ranks=4                 trace a 1D MP run
//   ./sstar_trace --suite=sherman5 --mapping=2d
//                 --json=trace.json --gantt           + Chrome JSON + Gantt
//   ./sstar_trace --load=trace.json --critical-path   analyze a saved trace
//
// Run mode builds the requested SPMD program (the same flags as
// sstar_mp), executes it rank-per-thread over the in-process transport
// with a TraceCollector installed, then:
//   * prints the measured per-lane phase breakdown (compute / comm wait
//     / idle — the measured version of the paper's Tables 5-7 split);
//   * reconciles the trace against independent ground truth: summed
//     span flops vs the process-wide BLAS flop counters, summed send
//     bytes/messages vs the transport's own traffic stats (exit 1 on
//     any mismatch);
//   * validates measured-vs-predicted by simulating the very program the
//     ranks executed (programs are pure data; the simulator only keeps
//     time): per-task time deltas, makespan ratio, and measured-order
//     DAG violations cross-checked against declared block access sets
//     (exit 1 if any violation survives);
//   * optionally writes Chrome trace_event JSON (--json=PATH, viewable
//     in chrome://tracing / ui.perfetto.dev), prints an ASCII Gantt
//     (--gantt), and the realized critical path (--critical-path).
//
// Load mode (--load=PATH) parses a previously written Chrome JSON and
// reruns the breakdown / Gantt / critical-path analyses on it.
//
// Flags: --suite=NAME --scale=S --grid=N --seed=S --max-block=N
//        --amalg=N --ranks=P --mapping=1d|2d --schedule=ca|graph
//        --sync --shape=RxC --watchdog=SECONDS
//        --json=PATH --gantt --critical-path --load=PATH
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "blas/flops.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "exec/lu_mp.hpp"
#include "exec/lu_real.hpp"
#include "matrix/generators.hpp"
#include "matrix/suite.hpp"
#include "solve/solver.hpp"
#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "trace/validate.hpp"
#include "util/check.hpp"

using namespace sstar;

namespace {

void analyze_and_print(const trace::Trace& tr, bool gantt, bool cpath) {
  const trace::PhaseBreakdown b = trace::phase_breakdown(tr);
  std::printf("%s", trace::breakdown_table(b).c_str());
  if (gantt) std::printf("\n%s", trace::gantt_text(tr).c_str());
  if (cpath) {
    const trace::CriticalPath cp = trace::realized_critical_path(tr);
    std::printf("\n%s", trace::critical_path_text(cp).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite_name, load_path, json_path;
  double scale = 1.0;
  int grid = 0;
  std::uint64_t seed = 1;
  SolverOptions opt;
  int ranks = 4;
  std::string mapping = "1d";
  std::string schedule = "graph";
  bool async = true;
  sim::Grid shape{0, 0};
  double watchdog = 120.0;
  bool gantt = false;
  bool cpath = false;

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
    } else if (arg.rfind("--watchdog=", 0) == 0) {
      watchdog = std::atof(arg.c_str() + 11);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--load=", 0) == 0) {
      load_path = arg.substr(7);
    } else if (arg == "--gantt") {
      gantt = true;
    } else if (arg == "--critical-path") {
      cpath = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (suite_name.empty() && grid == 0) grid = 14;
  if (mapping != "1d" && mapping != "2d") {
    std::fprintf(stderr, "--mapping must be 1d or 2d\n");
    return 2;
  }
  if (schedule != "ca" && schedule != "graph") {
    std::fprintf(stderr, "--schedule must be ca or graph\n");
    return 2;
  }

  try {
    if (!load_path.empty()) {
      std::ifstream in(load_path);
      if (!in.is_open()) throw CheckError("cannot open " + load_path);
      std::ostringstream buf;
      buf << in.rdbuf();
      const trace::Trace tr = trace::parse_chrome_trace(buf.str());
      std::printf("loaded %zu event(s) on %d lane(s) from %s\n\n",
                  tr.events.size(), tr.num_lanes, load_path.c_str());
      analyze_and_print(tr, gantt, cpath);
      return 0;
    }

    const SparseMatrix a = [&]() -> SparseMatrix {
      if (!suite_name.empty())
        return gen::suite_entry(suite_name).generate(scale, seed);
      gen::ValueOptions vo;
      vo.seed = seed;
      return gen::stencil5(grid, grid, 0.1, vo);
    }();
    const SolverSetup setup = prepare(a, opt);
    const BlockLayout& layout = *setup.layout;
    std::printf("matrix: n = %d, nnz = %lld; %d column blocks\n", a.rows(),
                static_cast<long long>(a.nnz()), layout.num_blocks());

    sim::MachineModel m = sim::MachineModel::cray_t3e(ranks);
    if (shape.rows > 0) {
      SSTAR_CHECK_MSG(shape.size() == ranks,
                      "--shape " << shape.rows << "x" << shape.cols
                                 << " does not match --ranks=" << ranks);
      m = m.with_grid(shape);
    }
    const sim::ParallelProgram prog =
        mapping == "2d"
            ? build_2d_program(layout, m, async)
            : build_1d_program(layout, m,
                               schedule == "ca" ? Schedule1DKind::kComputeAhead
                                                : Schedule1DKind::kGraph);
    std::printf("program: %s, %d ranks, %zu tasks\n\n", mapping.c_str(),
                ranks, prog.num_tasks());

    // Traced message-passing execution.
    trace::TraceCollector collector;
    const blas::FlopCount flops_before = blas::merged_flop_count();
    collector.install();
    exec::MpOptions mpopt;
    mpopt.watchdog_seconds = watchdog;
    SStarNumeric mp(layout);
    const exec::MpStats st =
        exec::execute_program_mp(prog, setup.permuted, mp, mpopt);
    collector.uninstall();
    const blas::FlopCount flops_after = blas::merged_flop_count();
    const trace::Trace tr = collector.take();
    std::printf("traced %zu event(s) on %d lane(s), %.3f s wall\n\n",
                tr.events.size(), tr.num_lanes, st.seconds);

    analyze_and_print(tr, gantt, cpath);

    int failures = 0;

    // Reconciliation against independent ground truth.
    const trace::PhaseBreakdown b = trace::phase_breakdown(tr);
    const auto counted_flops =
        static_cast<std::int64_t>(flops_after.total() - flops_before.total());
    const bool flops_ok = b.total_flops == counted_flops;
    std::printf("\nreconciliation:\n");
    std::printf("  span flops %lld vs BLAS counters %lld: %s\n",
                static_cast<long long>(b.total_flops),
                static_cast<long long>(counted_flops),
                flops_ok ? "ok" : "MISMATCH");
    const bool bytes_ok = b.total_sent_bytes == st.total_bytes() &&
                          b.sends == st.total_messages();
    std::printf("  send events %lld / %lld B vs transport %lld / %lld B: %s\n",
                static_cast<long long>(b.sends),
                static_cast<long long>(b.total_sent_bytes),
                static_cast<long long>(st.total_messages()),
                static_cast<long long>(st.total_bytes()),
                bytes_ok ? "ok" : "MISMATCH");
    failures += (flops_ok ? 0 : 1) + (bytes_ok ? 0 : 1);

    // Predicted vs measured.
    const trace::ValidationReport report =
        trace::validate_trace(prog, layout, m, tr);
    std::printf("\n%s", report.summary().c_str());
    if (!report.ok()) ++failures;

    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) throw CheckError("cannot write " + json_path);
      out << trace::chrome_trace_json(tr, "rank");
      std::printf("\nChrome trace written to %s (open in chrome://tracing "
                  "or ui.perfetto.dev)\n",
                  json_path.c_str());
    }
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
