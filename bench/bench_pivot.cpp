// bench_pivot — threshold-pivoting alpha-sweep ablation (ISSUE 9).
//
// Sweeps the PivotPolicy threshold alpha over the matrix suite and all
// three executors (sequential, shared-memory DAG executor, message-
// passing SPMD runtime) and prices the relaxation on both sides of the
// trade:
//   * speed — the REALIZED critical path, two ways. Headline: the 2D
//     SPMD program of core/lu_2d is charged with the realized
//     off-diagonal interchange counts of this alpha's factorization
//     (columns that kept their diagonal skip the winner-subrow
//     broadcast rounds and the delayed-interchange subrow exchange),
//     simulated on the paper's Cray T3D, and the simulated schedule is
//     rendered as a virtual-time trace (analysis/sim_trace) whose
//     trace::realized_critical_path is deterministic and carries the
//     model machine's communication physics. Secondary: the measured
//     DAG critical path (analysis/critical_path) of the traced real
//     runs on the host — measured arithmetic, but blind to
//     communication and noisy at microsecond span scale.
//   * accuracy — element growth, realized pivot ratio, and the
//     backward error after guarded_solve's refinement + escalation
//     ladder (solve/stability.hpp), so every speedup row carries the
//     stability bill next to it.
//
// The suite mixes Table-1 replicas (default blocking, few off-diagonal
// pivots to begin with) and pivot-stress instances — weak-diagonal
// stencil/FEM operators at narrow blocking, where delayed pivoting's
// interchange traffic dominates and threshold pivoting has real room.
//
// Results land as JSON (default results/bench_pivot.json) including a
// per-matrix best_cp_reduction figure: the largest relative saving in
// the simulated realized critical path any alpha < 1 achieves over
// alpha = 1.0.
//
// Flags: the common set, plus --alphas=1.0,0.5,0.1,0.01, --ranks=N
// (MP executor width, default 4), --procs=N (simulated 2D machine
// width, default 32), --reps=N (timed repetitions per configuration,
// minimum taken; default 3), --json=PATH.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/critical_path.hpp"
#include "analysis/sim_trace.hpp"
#include "cli/flags.hpp"
#include "common.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "core/task_graph.hpp"
#include "exec/lu_mp.hpp"
#include "exec/lu_real.hpp"
#include "matrix/generators.hpp"
#include "solve/stability.hpp"
#include "trace/analyze.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace sstar::bench {
namespace {

struct ExecRun {
  std::string executor;       // "seq" | "threads" | "mp"
  double cp_seconds = 0.0;    // realized critical path (min over reps)
  double makespan = 0.0;      // traced makespan (min over reps)
  bool bitwise = true;        // vs sequential under the SAME alpha
};

struct AlphaResult {
  double alpha = 1.0;
  int relaxed_pivots = 0;
  int off_diagonal_pivots = 0;
  double growth_factor = 0.0;
  double pivot_ratio = 0.0;
  double sim_cp = 0.0;  // realized CP of the simulated 2D run (seconds)
  std::vector<ExecRun> runs;
  // guarded_solve diagnostics (sequential solver under this alpha)
  double backward_error = 0.0;
  int refine_steps = 0;
  int refactorizations = 0;
  double alpha_used = 1.0;
  bool gate_passed = false;
};

struct MatrixResult {
  std::string name;
  int n = 0;
  int max_block = 0;
  std::vector<AlphaResult> alphas;
  double best_cp_reduction = 0.0;  // sequential executor, best alpha < 1
};

std::string fmt_sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1e", v);
  return std::string(buf);
}

const ExecRun* find_run(const AlphaResult& ar, const char* exec_name) {
  for (const ExecRun& r : ar.runs)
    if (r.executor == exec_name) return &r;
  return nullptr;
}

void write_json(const Options& opt, const std::vector<double>& alphas,
                int sim_procs, const std::vector<MatrixResult>& results) {
  int ge20 = 0;
  for (const MatrixResult& m : results)
    if (m.best_cp_reduction >= 0.20) ++ge20;
  util::JsonWriter w;
  w.begin_object().field("bench", "pivot").field("alphas", alphas);
  w.field("sim_procs", sim_procs);
  w.field("matrices_with_cp_reduction_ge_20pct", ge20).key("matrices");
  w.begin_array();
  for (const MatrixResult& m : results) {
    w.begin_object().field("name", m.name).field("n", m.n);
    w.field("max_block", m.max_block);
    w.field("best_cp_reduction", m.best_cp_reduction).key("alphas");
    w.begin_array();
    for (const AlphaResult& ar : m.alphas) {
      w.begin_object().field("alpha", ar.alpha);
      w.field("relaxed_pivots", ar.relaxed_pivots);
      w.field("off_diagonal_pivots", ar.off_diagonal_pivots);
      w.field("growth_factor", ar.growth_factor);
      w.field("pivot_ratio", ar.pivot_ratio);
      w.field("sim_critical_path_seconds", ar.sim_cp);
      w.field("backward_error", ar.backward_error);
      w.field("refine_steps", ar.refine_steps);
      w.field("refactorizations", ar.refactorizations);
      w.field("alpha_used", ar.alpha_used).field("gate_passed", ar.gate_passed);
      w.key("runs").begin_array();
      for (const ExecRun& run : ar.runs) {
        w.begin_object().field("executor", run.executor);
        w.field("critical_path_seconds", run.cp_seconds);
        w.field("makespan", run.makespan);
        w.field("bitwise_vs_sequential", run.bitwise).end_object();
      }
      w.end_array().end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  write_results("pivot", opt.json_path, w);
}

}  // namespace
}  // namespace sstar::bench

int main(int argc, char** argv) {
  using namespace sstar;
  using namespace sstar::bench;

  // Peel off bench_pivot-specific flags before the common parser runs.
  std::vector<double> alphas = {1.0, 0.5, 0.1, 0.01};
  int ranks = 4;
  int procs = 32;
  int reps = 3;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (auto v = cli::flag_value(arg, "--alphas=")) {
      alphas = cli::list<double>("--alphas", *v);
    } else if (auto v = cli::flag_value(arg, "--ranks=")) {
      ranks = cli::number<int>("--ranks", *v);
    } else if (auto v = cli::flag_value(arg, "--procs=")) {
      procs = std::max(1, cli::number<int>("--procs", *v));
    } else if (auto v = cli::flag_value(arg, "--reps=")) {
      reps = std::max(1, cli::number<int>("--reps", *v));
    } else {
      rest.push_back(argv[i]);
    }
  }
  Options opt = Options::parse(static_cast<int>(rest.size()), rest.data());
  // The first alpha is the baseline every reduction is measured against.
  std::sort(alphas.begin(), alphas.end(), std::greater<double>());
  if (alphas.empty() || alphas.front() != 1.0)
    alphas.insert(alphas.begin(), 1.0);
  const int nthreads = opt.threads.empty() ? 4 : opt.threads.front();

  print_preamble("Threshold-pivoting alpha sweep (realized critical path "
                 "vs stability)",
                 opt);

  // The bench suite: Table-1 replicas at the paper's blocking, plus
  // pivot-stress instances — weak-diagonal operators at narrow blocking
  // where delayed pivoting dominates the critical path.
  struct Entry {
    std::string name;
    SparseMatrix a;
    SolverOptions sopt;
  };
  std::vector<Entry> entries;
  auto add_suite = [&](const std::string& name) {
    const gen::SuiteEntry& e = gen::suite_entry(name);
    Entry ent;
    ent.name = name;
    ent.a = e.generate(opt.scale_for(e), opt.seed);
    ent.sopt = opt.solver_options();
    entries.push_back(std::move(ent));
  };
  auto add_stress = [&](const std::string& name, SparseMatrix a,
                        int max_block) {
    Entry ent;
    ent.name = name;
    ent.a = std::move(a);
    ent.sopt = opt.solver_options();
    ent.sopt.max_block = max_block;  // narrow: ScaleSwap-bound regime
    ent.sopt.amalgamation = 0;
    entries.push_back(std::move(ent));
  };
  add_suite("sherman5");
  add_suite("goodwin");
  {
    gen::ValueOptions vo;
    vo.seed = opt.seed;
    vo.weak_diag_fraction = 0.9;
    vo.weak_diag_scale = 0.05;
    // Weak diagonals make exact partial pivoting interchange almost
    // every column, while the threshold policy's diagonal preference
    // keeps nearly all of them in place — the realized interchange
    // counts (and with them the serialized winner-broadcast rounds and
    // subrow exchanges of the 2D code) collapse at alpha < 1.
    add_stress("stress_stencil", gen::stencil5(44, 44, 0.1, vo), 4);
    add_stress("stress_fem", gen::fem2d(14, 14, 3, 0.1, vo), 4);
  }
  if (!opt.only.empty()) {
    std::vector<Entry> kept;
    for (Entry& e : entries)
      for (const std::string& o : opt.only)
        if (e.name == o) kept.push_back(std::move(e));
    entries = std::move(kept);
  }

  std::vector<MatrixResult> results;
  for (Entry& ent : entries) {
    SolverSetup setup = prepare(ent.a, ent.sopt);
    const BlockLayout& lay = *setup.layout;
    const LuTaskGraph graph(lay);
    const sim::MachineModel machine = sim::MachineModel::cray_t3e(ranks);
    // The simulated 2D machine: the paper's T3D, whose 2.7 us put
    // latency is what the serialized pivot rounds are priced in.
    const sim::MachineModel machine2d = sim::MachineModel::cray_t3d(procs);

    MatrixResult mr;
    mr.name = ent.name;
    mr.n = ent.a.rows();
    mr.max_block = ent.sopt.max_block;

    TextTable table("bench_pivot — " + ent.name +
                    " (n=" + std::to_string(mr.n) +
                    ", max_block=" + std::to_string(ent.sopt.max_block) + ")");
    table.set_header({"alpha", "relaxed", "offdiag", "growth", "cp 2d s",
                      "red %", "dag cp s", "bwd err", "refine", "refac",
                      "bitwise"});

    double base_cp = 0.0;
    for (const double alpha : alphas) {
      PivotPolicy policy;
      policy.threshold = alpha;

      AlphaResult ar;
      ar.alpha = alpha;

      // Sequential reference for this alpha (also the bitwise anchor).
      SStarNumeric ref(lay);
      ref.set_pivot_policy(policy);
      // `setup` runs OUTSIDE the trace window (assembly is the same
      // value scatter under every policy and would dilute the measured
      // reduction as leading gap time); `body` is the traced region.
      auto timed = [&](auto&& setup_fn, auto&& body) {
        double cp = 0.0, mk = 0.0;
        for (int rep = 0; rep < reps; ++rep) {
          setup_fn();
          trace::TraceCollector collector;
          collector.install();
          body();
          collector.uninstall();
          const trace::Trace tr = collector.take();
          // cp: the DAG critical path under measured span weights — the
          // serialization an unbounded-parallelism run of these kernels
          // would pay (analysis/critical_path.hpp). mk: the wall-clock
          // makespan of this actual execution.
          const analysis::DagCriticalPath c =
              analysis::realized_dag_critical_path(tr, graph);
          const trace::CriticalPath wall = trace::realized_critical_path(tr);
          if (rep == 0 || c.seconds < cp) cp = c.seconds;
          if (rep == 0 || wall.makespan < mk) mk = wall.makespan;
        }
        return std::pair<double, double>(cp, mk);
      };

      {
        ExecRun run;
        run.executor = "seq";
        const auto [cp, mk] = timed([&] { ref.assemble(setup.permuted); },
                                    [&] { ref.factorize(); });
        run.cp_seconds = cp;
        run.makespan = mk;
        ar.runs.push_back(run);
      }
      ar.relaxed_pivots = ref.stats().relaxed_pivots;
      ar.off_diagonal_pivots = ref.stats().off_diagonal_pivots;
      ar.growth_factor = ref.growth_factor();
      ar.pivot_ratio = ref.pivot_ratio();

      // Headline speed figure: the 2D SPMD program charged with THIS
      // alpha's realized interchange counts, simulated on the T3D, and
      // its schedule walked by the trace layer's realized-critical-path
      // analyzer. Deterministic — no reps needed.
      {
        const std::vector<int> offdiag =
            offdiag_interchanges_per_block(lay, ref);
        const sim::ParallelProgram prog = build_2d_program(
            lay, machine2d, /*async=*/true, &offdiag);
        const sim::SimulationResult res = simulate(prog, machine2d);
        const trace::Trace tr = analysis::simulated_trace(prog, res);
        ar.sim_cp = trace::realized_critical_path(tr).makespan;
      }

      {
        ExecRun run;
        run.executor = "threads";
        SStarNumeric num(lay);
        num.set_pivot_policy(policy);
        const auto [cp, mk] =
            timed([&] { num.assemble(setup.permuted); },
                  [&] { exec::factorize_parallel(graph, num, nthreads); });
        run.cp_seconds = cp;
        run.makespan = mk;
        run.bitwise = exec::factors_bitwise_equal(ref, num);
        ar.runs.push_back(run);
      }

      {
        ExecRun run;
        run.executor = "mp";
        SStarNumeric num(lay);
        num.set_pivot_policy(policy);
        const auto [cp, mk] =
            timed([] {}, [&] {
              run_1d_mp(lay, machine, Schedule1DKind::kComputeAhead,
                        setup.permuted, num);
            });
        run.cp_seconds = cp;
        run.makespan = mk;
        run.bitwise = exec::factors_bitwise_equal(ref, num);
        ar.runs.push_back(run);
      }

      // Stability bill: guarded solve through the sequential solver.
      {
        SolverOptions sopt = ent.sopt;
        sopt.pivot = policy;
        Solver solver(ent.a, sopt);
        solver.factorize();
        Rng rng(opt.seed);
        std::vector<double> b(static_cast<std::size_t>(ent.a.rows()));
        for (double& v : b) v = rng.uniform(-1.0, 1.0);
        StabilityGate gate;
        gate.refine_steps = 2;
        const StabilityReport rep = guarded_solve(solver, ent.a, b, gate);
        ar.backward_error = rep.final_attempt().backward_error;
        ar.refine_steps = rep.final_attempt().refine_steps_used;
        ar.refactorizations = rep.refactorizations;
        ar.alpha_used = rep.alpha_used;
        ar.gate_passed = rep.gate_passed;
      }

      const double cp_seq = find_run(ar, "seq")->cp_seconds;
      if (alpha == 1.0) base_cp = ar.sim_cp;
      const double reduction = base_cp > 0.0 && alpha < 1.0
                                   ? (base_cp - ar.sim_cp) / base_cp
                                   : 0.0;
      if (alpha < 1.0)
        mr.best_cp_reduction = std::max(mr.best_cp_reduction, reduction);

      bool all_bitwise = true;
      for (const ExecRun& r : ar.runs) all_bitwise = all_bitwise && r.bitwise;
      table.add_row(
          {fmt_double(alpha, 2), std::to_string(ar.relaxed_pivots),
           std::to_string(ar.off_diagonal_pivots),
           fmt_sci(ar.growth_factor), fmt_sci(ar.sim_cp),
           fmt_double(100.0 * reduction, 1), fmt_sci(cp_seq),
           fmt_sci(ar.backward_error), std::to_string(ar.refine_steps),
           std::to_string(ar.refactorizations),
           all_bitwise ? "ok" : "MISMATCH"});
      mr.alphas.push_back(std::move(ar));
    }

    table.set_footnote(
        "cp 2d = realized critical path of the 2D SPMD program charged "
        "with this alpha's realized interchanges, simulated on a " +
        std::to_string(procs) +
        "-PE T3D; red % = cp-2d saving vs alpha = 1.0; dag cp = measured "
        "DAG critical path of the traced sequential run (min of " +
        std::to_string(reps) +
        " reps); bitwise = threads/mp factors identical to the sequential "
        "factor UNDER THE SAME alpha; bwd err/refine/refac from "
        "guarded_solve's refinement + escalation ladder.");
    table.print();
    std::printf("best critical-path reduction at alpha < 1: %.1f%%\n\n",
                100.0 * mr.best_cp_reduction);
    results.push_back(std::move(mr));
  }

  write_json(opt, alphas, procs, results);
  return 0;
}
