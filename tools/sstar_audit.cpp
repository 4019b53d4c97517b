// sstar_audit — prove the LU task DAG covers every block access.
//
//   ./sstar_audit MATRIX.mtx            audit a Matrix Market / HB file
//   ./sstar_audit --suite=sherman5      audit a Table-1 replica matrix
//   ./sstar_audit --grid=32             audit a 32x32 five-point stencil
//
// Runs the static dependence audit (analysis/audit.hpp) on the
// kernel-level Factor/Update DAG: derives each task's declared
// read/write block set, materializes DAG reachability, and reports every
// conflicting access pair no dependence path orders. With --programs it
// also audits the built 1D (compute-ahead and graph-scheduled) and 2D
// (async and sync) SPMD programs under their own happens-before
// relation. With --dynamic (requires a -DSSTAR_AUDIT=ON build) it
// executes the factorization on real threads with access recording on
// and cross-validates the recorded events against the declared sets.
// --self-test deletes one DAG edge and exits 0 only if the auditor
// pinpoints the missing ordering — the end-to-end negative check.
//
// --comm runs the static communication auditor (analysis/comm_audit)
// over the message plans of all four SPMD variants — match soundness,
// coverage, deadlock-freedom, release safety — plus degenerate 2D grid
// shapes (P x 1 and 1 x P). --comm-self-test injects one defect of each
// kind (dropped send, reordered recvs, corrupted tag, miscounted
// consumer, send moved behind a dependent recv) and exits 0 only if the
// auditor pinpoints every one at the exact rank/task/op, printing the
// counterexample wait-for cycle for the deadlock case.
//
// Flags: --suite=NAME --scale=S --grid=N --seed=S --ordering=... as in
//        sstar_solve_cli, --max-block=N --amalg=N, --programs
//        --procs=P, --dynamic --threads=T, --self-test [--drop-edge=I],
//        --comm, --comm-self-test,
//        --verbose (print every violation, not just the first few)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "analysis/comm_audit.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "core/task_graph.hpp"
#include "exec/lu_real.hpp"
#include "matrix/generators.hpp"
#include "matrix/io.hpp"
#include "matrix/suite.hpp"
#include "sim/comm_plan.hpp"
#include "solve/solver.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

using namespace sstar;

namespace {

void print_report(const char* what, const analysis::AuditReport& report,
                  bool verbose) {
  std::printf("%-28s %s\n", what, report.summary().c_str());
  const std::size_t show =
      verbose ? report.violations.size()
              : std::min<std::size_t>(report.violations.size(), 5);
  for (std::size_t v = 0; v < show; ++v)
    std::printf("  !! %s\n", report.violations[v].message().c_str());
  if (show < report.violations.size())
    std::printf("  .. %zu more (use --verbose)\n",
                report.violations.size() - show);
}

int self_test(const BlockLayout& layout, int drop_edge,
              std::uint64_t seed) {
  const LuTaskGraph graph(layout);
  std::vector<LuTaskEdge> edges = graph.edges();
  if (drop_edge < 0) {
    // Pick a random Factor(k) -> Update(k, j) edge: those always carry a
    // direct conflict (the update reads the diagonal block and pivot
    // sequence Factor writes), so the auditor must name this exact pair.
    Rng rng(seed);
    std::vector<int> candidates;
    for (int e = 0; e < static_cast<int>(edges.size()); ++e) {
      const LuTask& from = graph.task(edges[e].from);
      const LuTask& to = graph.task(edges[e].to);
      if (from.type == LuTask::Type::kFactor &&
          to.type == LuTask::Type::kUpdate && from.k == to.k)
        candidates.push_back(e);
    }
    SSTAR_CHECK(!candidates.empty());
    drop_edge = candidates[rng.uniform_int(
        0, static_cast<int>(candidates.size()) - 1)];
  }
  SSTAR_CHECK_MSG(drop_edge < static_cast<int>(edges.size()),
                  "--drop-edge index out of range");
  const LuTaskEdge dropped = edges[static_cast<std::size_t>(drop_edge)];
  edges.erase(edges.begin() + drop_edge);
  std::printf("self-test: dropped edge #%d (task %d -> task %d)\n",
              drop_edge, dropped.from, dropped.to);

  const analysis::AuditReport report =
      analysis::audit_task_graph(graph, edges);
  print_report("audit without that edge:", report, false);
  for (const analysis::AuditViolation& v : report.violations) {
    if (v.task_a == dropped.from && v.task_b == dropped.to) {
      std::printf("self-test OK: auditor pinpointed the deleted edge\n");
      return 0;
    }
  }
  std::printf("self-test FAILED: deleted edge not flagged\n");
  return 1;
}

// The four SPMD program variants (comm plans attached by the builders),
// labelled for output.
std::vector<std::pair<std::string, sim::ParallelProgram>> program_variants(
    const BlockLayout& layout, const sim::MachineModel& m) {
  std::vector<std::pair<std::string, sim::ParallelProgram>> out;
  out.emplace_back("1D compute-ahead",
                   build_1d_program(layout, m, Schedule1DKind::kComputeAhead));
  out.emplace_back("1D graph-scheduled",
                   build_1d_program(layout, m, Schedule1DKind::kGraph));
  out.emplace_back("2D async", build_2d_program(layout, m, true));
  out.emplace_back("2D sync", build_2d_program(layout, m, false));
  return out;
}

void print_comm_report(const std::string& what,
                       const analysis::CommAuditReport& report,
                       bool verbose) {
  std::printf("%-28s %s\n", (what + ":").c_str(), report.summary().c_str());
  const std::size_t show = verbose ? report.issues.size()
                                   : std::min<std::size_t>(
                                         report.issues.size(), 5);
  for (std::size_t i = 0; i < show; ++i)
    std::printf("  !! %s\n", report.issues[i].message().c_str());
  if (show < report.issues.size())
    std::printf("  .. %zu more (use --verbose)\n",
                report.issues.size() - show);
  if (!report.deadlock_free()) {
    std::printf("  !! wait-for cycle (deadlock counterexample):\n");
    for (const std::string& line : report.deadlock_cycle)
      std::printf("     -> %s\n", line.c_str());
  }
}

int comm_audit(const BlockLayout& layout, int procs, bool verbose) {
  int failures = 0;
  const sim::MachineModel m = sim::MachineModel::cray_t3e(procs);
  for (const auto& [name, prog] : program_variants(layout, m)) {
    const analysis::CommAuditReport report =
        analysis::audit_comm_plan(prog, layout);
    print_comm_report(name + " comm plan", report, verbose);
    failures += report.ok() ? 0 : 1;
  }
  // Degenerate grid shapes: a P x 1 column and a 1 x P row. The row
  // shape is the 1D fan-out expressed through the 2D builder; the
  // column shape makes every multicast a leader-forward chain.
  if (procs > 1) {
    for (const sim::Grid shape : {sim::Grid{procs, 1}, sim::Grid{1, procs}}) {
      const sim::MachineModel md = m.with_grid(shape);
      for (const bool async : {true, false}) {
        const sim::ParallelProgram prog =
            build_2d_program(layout, md, async);
        const analysis::CommAuditReport report =
            analysis::audit_comm_plan(prog, layout);
        print_comm_report("2D " + std::to_string(shape.rows) + "x" +
                              std::to_string(shape.cols) +
                              (async ? " async" : " sync"),
                          report, verbose);
        failures += report.ok() ? 0 : 1;
      }
    }
  }
  return failures;
}

int comm_self_test(const BlockLayout& layout, int procs,
                   std::uint64_t seed) {
  const sim::MachineModel m = sim::MachineModel::cray_t3e(procs);
  int failures = 0;
  for (const auto& [name, clean] : program_variants(layout, m)) {
    // Each mutation gets a fresh copy of the clean program, which must
    // itself audit clean for the self-test to mean anything.
    if (!analysis::audit_comm_plan(clean, layout).ok()) {
      std::printf("comm self-test FAILED: %s does not audit clean\n",
                  name.c_str());
      ++failures;
      continue;
    }

    struct Case {
      const char* label;
      analysis::CommMutation mutation;
      analysis::CommAuditReport report;
    };
    std::vector<Case> cases;

    {
      sim::ParallelProgram prog = clean;
      Case c{"drop-send", analysis::mutate_drop_send(prog, seed), {}};
      c.report = analysis::audit_comm_plan(prog, layout);
      cases.push_back(std::move(c));
    }
    {
      sim::ParallelProgram prog = clean;
      Case c{"reorder-recvs", analysis::mutate_reorder_recvs(prog, seed), {}};
      c.report = analysis::audit_comm_plan(prog, layout);
      cases.push_back(std::move(c));
    }
    {
      sim::ParallelProgram prog = clean;
      Case c{"corrupt-tag", analysis::mutate_corrupt_tag(prog, seed), {}};
      c.report = analysis::audit_comm_plan(prog, layout);
      cases.push_back(std::move(c));
    }
    {
      auto counts = sim::panel_consumer_counts(clean);
      Case c{"miscount-consumer",
             analysis::mutate_miscount_consumer(clean, counts, seed), {}};
      c.report = analysis::audit_comm_plan(clean, layout, counts);
      cases.push_back(std::move(c));
    }
    {
      sim::ParallelProgram prog = clean;
      Case c{"inject-deadlock", analysis::mutate_inject_deadlock(prog), {}};
      c.report = analysis::audit_comm_plan(prog, layout);
      cases.push_back(std::move(c));
    }

    for (const Case& c : cases) {
      if (!c.mutation.found) {
        std::printf("%s / %-18s no injection site (skipped)\n", name.c_str(),
                    c.label);
        continue;
      }
      const bool caught =
          !c.report.ok() && c.mutation.pinpointed_by(c.report);
      std::printf("%s / %-18s %s: %s\n", name.c_str(), c.label,
                  caught ? "pinpointed" : "MISSED",
                  c.mutation.what.c_str());
      if (!caught) {
        print_comm_report("  report was", c.report, true);
        ++failures;
      } else if (!c.report.deadlock_free()) {
        for (const std::string& line : c.report.deadlock_cycle)
          std::printf("     -> %s\n", line.c_str());
      }
    }
  }
  if (failures == 0)
    std::printf("comm self-test OK\n");
  else
    std::printf("comm self-test FAILED (%d)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string matrix_path, suite_name;
  double scale = 1.0;
  int grid = 0;
  std::uint64_t seed = 1;
  SolverOptions opt;
  bool programs = false;
  int procs = 4;
  bool dynamic = false;
  [[maybe_unused]] int threads = 4;  // only read in SSTAR_AUDIT builds
  bool run_self_test = false;
  int drop_edge = -1;
  bool comm = false;
  bool run_comm_self_test = false;
  bool verbose = false;

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
    } else if (arg == "--programs") {
      programs = true;
    } else if (arg.rfind("--procs=", 0) == 0) {
      procs = std::atoi(arg.c_str() + 8);
    } else if (arg == "--dynamic") {
      dynamic = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.c_str() + 10);
    } else if (arg == "--comm") {
      comm = true;
    } else if (arg == "--comm-self-test") {
      run_comm_self_test = true;
    } else if (arg == "--self-test") {
      run_self_test = true;
    } else if (arg.rfind("--drop-edge=", 0) == 0) {
      run_self_test = true;
      drop_edge = std::atoi(arg.c_str() + 12);
    } else if (arg == "--verbose") {
      verbose = true;
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
    SSTAR_CHECK_MSG(a.rows() == a.cols(), "matrix must be square");

    SolverSetup setup = prepare(a, opt);
    const BlockLayout& layout = *setup.layout;
    std::printf("layout: %d column blocks\n", layout.num_blocks());

    if (run_self_test) return self_test(layout, drop_edge, seed);
    if (run_comm_self_test) return comm_self_test(layout, procs, seed);

    int failures = 0;
    if (comm) failures += comm_audit(layout, procs, verbose);
    const LuTaskGraph graph(layout);
    const analysis::AuditReport static_report =
        analysis::audit_task_graph(graph);
    print_report("task DAG (static):", static_report, verbose);
    failures += static_report.ok() ? 0 : 1;

    if (programs) {
      for (const auto& [name, prog] :
           program_variants(layout, sim::MachineModel::cray_t3e(procs))) {
        const analysis::AuditReport report =
            analysis::audit_program(prog, layout);
        print_report((name + " program:").c_str(), report, verbose);
        failures += report.ok() ? 0 : 1;
      }
    }

    if (dynamic) {
#ifdef SSTAR_AUDIT_ENABLED
      analysis::AccessLog log;
      log.install();
      SStarNumeric numeric(layout);
      numeric.assemble(setup.permuted);
      exec::factorize_parallel(graph, numeric, threads);
      log.uninstall();
      const analysis::DynamicAuditReport dyn =
          analysis::check_recorded_accesses(graph, log.take_events());
      std::printf("%-28s %s\n", "dynamic (recorded events):",
                  dyn.summary().c_str());
      for (const auto& u : dyn.undeclared)
        std::printf("  !! %s\n", u.message().c_str());
      for (const auto& v : dyn.unordered)
        std::printf("  !! %s\n", v.message().c_str());
      failures += dyn.ok() ? 0 : 1;
#else
      std::fprintf(stderr,
                   "--dynamic requires a -DSSTAR_AUDIT=ON build "
                   "(access recording is compiled out)\n");
      return 2;
#endif
    }
    return failures == 0 ? 0 : 1;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
