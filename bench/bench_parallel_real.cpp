// Real wall-clock parallel factorization benchmark (ISSUE 1).
//
// Unlike the table/figure harnesses (which reproduce the paper's
// SIMULATED Cray times), this bench runs the LU task DAG on actual
// hardware threads via exec::factorize_parallel and reports measured
// seconds, speedup over the 1-thread executor, parallel efficiency, and
// steal counts per thread count — and verifies that every parallel run
// produced factors bitwise-identical to the sequential factorization.
//
// Besides the text table, results are written as machine-readable JSON
// (default results/bench_parallel_real.json, override with --json=PATH)
// so later PRs can track the performance trajectory.
//
// Flags: the common set, plus --threads=1,2,4,8, --json=PATH, and
// --trace=PATH (one Chrome trace_event JSON per matrix x thread-count
// run, tag inserted before the extension).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/task_graph.hpp"
#include "exec/lu_real.hpp"
#include "trace/trace.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace sstar::bench {
namespace {

struct Run {
  int threads = 0;
  double seconds = 0.0;
  double speedup = 0.0;
  double efficiency = 0.0;
  long long steals = 0;
  bool identical = false;
};

struct MatrixResult {
  std::string name;
  int n = 0;
  double sequential_seconds = 0.0;
  std::vector<Run> runs;
};

void write_json(const std::string& path,
                const std::vector<MatrixResult>& results) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  out << "{\n  \"bench\": \"parallel_real\",\n";
  out << "  \"hardware_threads\": " << exec::default_thread_count() << ",\n";
  out << "  \"matrices\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MatrixResult& m = results[i];
    out << "    {\"name\": \"" << m.name << "\", \"n\": " << m.n
        << ", \"sequential_seconds\": " << num(m.sequential_seconds)
        << ", \"runs\": [\n";
    for (std::size_t r = 0; r < m.runs.size(); ++r) {
      const Run& run = m.runs[r];
      out << "      {\"threads\": " << run.threads
          << ", \"seconds\": " << num(run.seconds)
          << ", \"speedup\": " << num(run.speedup)
          << ", \"efficiency\": " << num(run.efficiency)
          << ", \"steals\": " << run.steals
          << ", \"identical_to_sequential\": "
          << (run.identical ? "true" : "false") << "}"
          << (r + 1 < m.runs.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("JSON written to %s\n", path.c_str());
}

}  // namespace
}  // namespace sstar::bench

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

  std::vector<MatrixResult> results;
  for (const std::string& name : names) {
    const Prepared p = prepare_matrix(name, opt, /*need_gplu=*/false);
    const BlockLayout& lay = *p.setup.layout;
    const LuTaskGraph graph(lay);

    MatrixResult mr;
    mr.name = name;
    mr.n = p.order;

    // Sequential reference: the plain right-looking loop, no executor.
    SStarNumeric ref(lay);
    ref.assemble(p.setup.permuted);
    {
      const WallTimer t;
      ref.factorize();
      mr.sequential_seconds = t.seconds();
    }

    std::vector<std::string> row{matrix_label(p),
                                 fmt_double(mr.sequential_seconds, 3)};
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

      Run run;
      run.threads = nt;
      run.seconds = st.seconds;
      if (base_seconds == 0.0) base_seconds = st.seconds;
      run.speedup = st.seconds > 0.0 ? base_seconds / st.seconds : 0.0;
      run.efficiency = st.efficiency();
      run.steals = st.steals;
      run.identical = exec::factors_bitwise_equal(ref, num);
      all_identical = all_identical && run.identical;
      mr.runs.push_back(run);

      row.push_back(fmt_double(run.seconds, 3));
      row.push_back(fmt_double(run.speedup, 2));
    }
    row.push_back(all_identical ? "ok" : "MISMATCH");
    table.add_row(std::move(row));
    results.push_back(std::move(mr));
  }

  table.set_footnote(
      "xN = speedup over the 1st listed thread count's executor run; "
      "'bitwise' = parallel factors identical to sequential at every "
      "thread count. Speedup requires free hardware threads (this host: " +
      std::to_string(exec::default_thread_count()) + ").");
  table.print();

  write_json(opt.json_path.empty() ? "results/bench_parallel_real.json"
                                   : opt.json_path,
             results);
  return 0;
}
