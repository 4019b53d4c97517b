// Message-passing SPMD runtime benchmark.
//
// Runs the rank-per-thread message-passing executor (exec/lu_mp) —
// private per-rank replicas, real factor-panel sends/receives over the
// in-process transport — against the shared-memory work-stealing
// executor on the same schedules, per rank count: measured seconds,
// message count, communicated bytes, and a bitwise check of the merged
// factors against the sequential factorization. The communication
// columns are the point: the MP runtime pays for its distribution
// honesty in serialized panel traffic, and this bench tracks that cost
// alongside the wall clock.
//
// Each MP run also reports its measured per-rank peak store bytes
// (owned area + panel-cache high water, from DistBlockStore) next to
// the sim/memory_model replay prediction — the predicted-vs-measured
// MEMORY datapoint companion to the runtime validation of
// trace/validate. The two must agree exactly (the prediction replays
// the same refcount protocol the store runs).
//
// Besides the text table, results go to machine-readable JSON (default
// results/bench_mp.json, override with --json=PATH); the JSON carries
// the resolved machine model (name, topology, rank placement) and the
// transport under which the runs executed, so a results file is
// self-describing.
//
// Flags: the common set; --threads=1,2,4 doubles as the RANK counts;
// --machine=PRESET|FILE.json picks the machine the programs are built
// and priced against ("t3d", "t3e", "hier4x8", or a DESIGN.md §16 JSON
// spec); --transport=inproc|proc realizes ranks as threads or as real
// OS processes over the shared-memory transport (Linux only);
// --trace=PATH writes one Chrome trace_event JSON per MP run (tagged
// matrix.program.rN before the extension).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "exec/lu_mp.hpp"
#include "exec/lu_real.hpp"
#include "sim/machine_spec.hpp"
#include "sim/memory_model.hpp"
#include "trace/trace.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace sstar::bench {
namespace {

struct Run {
  int ranks = 0;
  std::string program;  // "1d-graph" or "2d-async"
  double mp_seconds = 0.0;
  double sm_seconds = 0.0;  // shared-memory executor, same schedule
  long long messages = 0;
  long long bytes = 0;
  bool identical = false;
  std::vector<long long> rank_peak_bytes;       // measured, per rank
  std::vector<long long> predicted_peak_bytes;  // replay prediction
  long long peak_store_bytes = 0;       // sum of measured rank peaks
  long long predicted_store_bytes = 0;  // sum of predicted rank peaks
};

struct MatrixResult {
  std::string name;
  int n = 0;
  double sequential_seconds = 0.0;
  long long sequential_store_bytes = 0;  // the packed store's size
  std::vector<Run> runs;
};

std::string json_array(const std::vector<long long>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += std::to_string(v[i]) + (i + 1 < v.size() ? ", " : "");
  return out + "]";
}

void write_json(const std::string& path, const std::string& machine_spec,
                const std::string& transport,
                const std::vector<std::pair<int, std::string>>& machines,
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
  out << "{\n  \"bench\": \"mp\",\n  \"machine_spec\": \"" << machine_spec
      << "\",\n  \"transport\": \"" << transport << "\",\n"
      << "  \"machines\": {";
  for (std::size_t i = 0; i < machines.size(); ++i)
    out << (i ? ", " : "") << "\"" << machines[i].first
        << "\": " << machines[i].second;
  out << "},\n  \"matrices\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MatrixResult& m = results[i];
    out << "    {\"name\": \"" << m.name << "\", \"n\": " << m.n
        << ", \"sequential_seconds\": " << num(m.sequential_seconds)
        << ", \"sequential_store_bytes\": " << m.sequential_store_bytes
        << ", \"runs\": [\n";
    for (std::size_t r = 0; r < m.runs.size(); ++r) {
      const Run& run = m.runs[r];
      out << "      {\"ranks\": " << run.ranks << ", \"program\": \""
          << run.program << "\", \"mp_seconds\": " << num(run.mp_seconds)
          << ", \"shared_memory_seconds\": " << num(run.sm_seconds)
          << ", \"messages\": " << run.messages
          << ", \"bytes\": " << run.bytes
          << ", \"identical_to_sequential\": "
          << (run.identical ? "true" : "false")
          << ",\n       \"peak_store_bytes\": " << run.peak_store_bytes
          << ", \"predicted_store_bytes\": " << run.predicted_store_bytes
          << ", \"rank_peak_bytes\": " << json_array(run.rank_peak_bytes)
          << ", \"predicted_rank_peak_bytes\": "
          << json_array(run.predicted_peak_bytes) << "}"
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
  const std::vector<int> rank_counts =
      opt.threads.empty() ? std::vector<int>{2, 4} : opt.threads;
  std::vector<std::string> names = gen::small_set();
  names.push_back("goodwin");
  names = opt.select(names);

  const std::string machine_spec =
      opt.machine.empty() ? "t3e" : opt.machine;
  print_preamble("Message-passing SPMD runtime (" + opt.transport +
                     " transport, machine " + machine_spec + ")",
                 opt);
  std::vector<std::pair<int, std::string>> machines;
  for (const int ranks : rank_counts)
    machines.emplace_back(
        ranks, sim::machine_json(sim::resolve_machine(machine_spec, ranks)));

  TextTable table("bench_mp — message-passing vs shared-memory execution");
  table.set_header({"matrix", "program", "ranks", "seq s", "mp s", "sm s",
                    "msgs", "MB moved", "peak MB", "x seq", "pred",
                    "bitwise"});

  std::vector<MatrixResult> results;
  for (const std::string& name : names) {
    const Prepared p = prepare_matrix(name, opt, /*need_gplu=*/false);
    const BlockLayout& lay = *p.setup.layout;

    MatrixResult mr;
    mr.name = name;
    mr.n = p.order;

    SStarNumeric ref(lay);
    ref.assemble(p.setup.permuted);
    {
      const WallTimer t;
      ref.factorize();
      mr.sequential_seconds = t.seconds();
    }
    mr.sequential_store_bytes = ref.data().size() * 8;

    for (const int ranks : rank_counts) {
      const sim::MachineModel m = sim::resolve_machine(machine_spec, ranks);
      struct Variant {
        const char* label;
        bool two_d;
      };
      for (const Variant v : {Variant{"1d-graph", false},
                              Variant{"2d-async", true}}) {
        Run run;
        run.ranks = ranks;
        run.program = v.label;

        // Build the program explicitly (same construction as
        // run_{1d,2d}_mp) so the memory prediction replays the exact
        // comm plan the run executes.
        const sim::ParallelProgram prog =
            v.two_d ? build_2d_program(lay, m, /*async=*/true)
                    : build_1d_program(lay, m, Schedule1DKind::kGraph);
        const sim::MpMemoryPrediction pred = sim::predict_mp_memory(lay, prog);

        SStarNumeric mp(lay);
        exec::MpOptions mpopt;
        if (opt.transport == "proc")
          mpopt.transport_kind = exec::MpOptions::TransportKind::kProc;
        trace::TraceCollector collector;
        if (!opt.trace_path.empty()) collector.install();
        const exec::MpStats st =
            exec::execute_program_mp(prog, p.setup.permuted, mp, mpopt);
        if (!opt.trace_path.empty()) {
          collector.uninstall();
          write_trace(opt.trace_path,
                      name + "." + v.label + ".r" + std::to_string(ranks),
                      collector.take(), "rank");
        }
        run.mp_seconds = st.seconds;
        run.messages = st.total_messages();
        run.bytes = st.total_bytes();
        run.identical = exec::factors_bitwise_equal(ref, mp);
        for (const exec::MpStats::RankMemoryStats& ms : st.memory)
          run.rank_peak_bytes.push_back(ms.peak_bytes);
        for (const sim::MpMemoryPrediction::Rank& pr : pred.ranks)
          run.predicted_peak_bytes.push_back(pr.peak_bytes);
        run.peak_store_bytes = st.peak_store_bytes_total();
        run.predicted_store_bytes = pred.total_peak_bytes();

        SStarNumeric sm(lay);
        sm.assemble(p.setup.permuted);
        const exec::ExecStats sst =
            v.two_d ? run_2d_real(lay, m, /*async=*/true, sm, ranks)
                    : run_1d_real(lay, m, Schedule1DKind::kGraph, sm, ranks);
        run.sm_seconds = sst.seconds;

        table.add_row(
            {matrix_label(p), v.label, std::to_string(ranks),
             fmt_double(mr.sequential_seconds, 3),
             fmt_double(run.mp_seconds, 3), fmt_double(run.sm_seconds, 3),
             std::to_string(run.messages),
             fmt_double(static_cast<double>(run.bytes) / 1.0e6, 2),
             fmt_double(static_cast<double>(run.peak_store_bytes) / 1.0e6, 2),
             fmt_double(static_cast<double>(run.peak_store_bytes) /
                            static_cast<double>(mr.sequential_store_bytes),
                        2),
             run.peak_store_bytes == run.predicted_store_bytes ? "exact"
                                                               : "MISMATCH",
             run.identical ? "ok" : "MISMATCH"});
        mr.runs.push_back(std::move(run));
      }
    }
    results.push_back(std::move(mr));
  }

  table.set_footnote(
      "mp = rank-per-thread message-passing executor (owner-only stores, "
      "serialized factor-panel traffic); sm = shared-memory work-stealing "
      "executor with the same schedule; 'peak MB' = sum over ranks of "
      "owned + panel-cache high water, 'x seq' = that sum over the "
      "sequential packed store, 'pred' = measured peak vs the "
      "sim/memory_model replay; 'bitwise' = merged MP factors identical "
      "to the sequential factorization.");
  table.print();

  write_json(opt.json_path.empty() ? "results/bench_mp.json" : opt.json_path,
             machine_spec, opt.transport, machines, results);
  return 0;
}
