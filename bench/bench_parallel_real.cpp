// Real wall-clock parallel factorization benchmark (ISSUE 1).
//
// Unlike the table/figure harnesses (which reproduce the paper's
// SIMULATED Cray times), this bench runs the LU task DAG on actual
// hardware threads via exec::factorize_parallel and reports measured
// seconds, speedup over the first listed thread count's run, and steal
// counts per thread count — and verifies that every parallel run
// produced factors bitwise-identical to the sequential factorization,
// exiting 1 when one did not. Per-worker busy and idle time are in the
// traces (--trace, read back with `sstar_trace --load`).
//
// Besides the text table, results are written as machine-readable JSON
// (default results/bench_parallel_real.json, override with --json=PATH)
// to track the performance trajectory.
//
// Flags: the common set, plus --threads=1,2,4,8, --json=PATH, and
// --trace=PATH (one Chrome trace_event JSON per matrix x thread-count
// run, tag inserted before the extension).
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/task_graph.hpp"
#include "exec/lu_real.hpp"
#include "trace/trace.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace sstar;
  using namespace sstar::bench;

  Options opt = Options::parse(argc, argv);
  const std::vector<int> thread_counts =
      opt.threads.empty() ? std::vector<int>{1, 2, 4, 8} : opt.threads;
  // Default set: the small suite plus one larger FEM problem — enough
  // task-level parallelism to occupy 8 workers, small enough to run
  // everywhere.
  std::vector<std::string> names = gen::small_set();
  names.push_back("goodwin");
  names.push_back("dense1000");
  names = opt.select(names);

  print_preamble("Real shared-memory parallel factorization (wall clock)",
                 opt);
  std::printf("hardware threads available: %d\n\n",
              exec::default_thread_count());

  TextTable table("bench_parallel_real — DAG executor wall-clock scaling");
  std::vector<std::string> header{"matrix", "seq s"};
  for (const int nt : thread_counts) {
    std::string secs_col = "t";
    secs_col += std::to_string(nt);
    secs_col += " s";
    header.push_back(std::move(secs_col));
    std::string speedup_col = "x";
    speedup_col += std::to_string(nt);
    header.push_back(std::move(speedup_col));
  }
  header.push_back("bitwise");
  table.set_header(std::move(header));

  // The results document is written as the runs complete.
  util::JsonWriter json;
  json.begin_object().field("bench", "parallel_real");
  json.field("hardware_threads", exec::default_thread_count());
  json.key("matrices").begin_array();
  bool all_ok = true;
  for (const std::string& name : names) {
    const Prepared p = prepare_matrix(name, opt, /*need_gplu=*/false);
    const BlockLayout& lay = *p.setup.layout;
    const LuTaskGraph graph(lay);

    // Sequential reference: the plain right-looking loop, no executor.
    SStarNumeric ref(lay);
    ref.assemble(p.setup.permuted);
    const WallTimer timer;
    ref.factorize();
    const double seq_seconds = timer.seconds();
    json.begin_object().field("name", name).field("n", p.order);
    json.field("sequential_seconds", seq_seconds).key("runs").begin_array();

    std::vector<std::string> row{matrix_label(p), fmt_double(seq_seconds, 3)};
    double base_seconds = 0.0;
    bool all_identical = true;
    for (const int nt : thread_counts) {
      SStarNumeric num(lay);
      num.assemble(p.setup.permuted);
      trace::TraceCollector collector;
      if (!opt.trace_path.empty()) collector.install();
      const exec::ExecStats st = exec::factorize_parallel(graph, num, nt);
      if (!opt.trace_path.empty()) {
        collector.uninstall();
        write_trace(opt.trace_path, name + ".t" + std::to_string(nt),
                    collector.take(), "worker");
      }

      if (base_seconds == 0.0) base_seconds = st.seconds;
      const double speedup = st.seconds > 0.0 ? base_seconds / st.seconds : 0.0;
      const bool identical = exec::factors_bitwise_equal(ref, num);
      all_identical = all_identical && identical;
      row.push_back(fmt_double(st.seconds, 3));
      row.push_back(fmt_double(speedup, 2));
      json.begin_object().field("threads", nt);
      json.field("seconds", st.seconds).field("speedup", speedup);
      json.field("steals", st.steals);
      json.field("identical_to_sequential", identical).end_object();
    }
    json.end_array().end_object();
    row.push_back(all_identical ? "ok" : "MISMATCH");
    table.add_row(std::move(row));
    all_ok = all_ok && all_identical;
  }
  json.end_array().end_object();

  table.set_footnote(
      "xN = speedup over the 1st listed thread count's executor run; "
      "'bitwise' = parallel factors identical to sequential at every "
      "thread count. Speedup requires free hardware threads (this host: " +
      std::to_string(exec::default_thread_count()) + ").");
  table.print();

  write_results("parallel_real", opt.json_path, json);
  return all_ok ? 0 : 1;
}
