// Message-passing SPMD runtime benchmark.
//
// Runs the message-passing executor (exec/lu_mp) — private per-rank
// replicas, real factor-panel sends/receives over the transport — per
// program and rank count: measured seconds against the sequential
// factorization's, message count, communicated bytes, and a bitwise
// check of the merged factors against the sequential factorization.
// The communication columns are the point: the MP runtime pays for its
// distribution honesty in serialized panel traffic, and this bench
// tracks that cost alongside the wall clock.
//
// Each MP run also reports its measured per-rank peak store bytes
// (owned area + panel-cache high water, from DistBlockStore) next to
// the sim/memory_model replay prediction — the predicted-vs-measured
// MEMORY datapoint companion to the runtime validation of
// trace/validate. The two must agree exactly (the prediction replays
// the same refcount protocol the store runs). The bench exits 1 when
// they do not, or when a run's factors are not bitwise the sequential
// factorization's.
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
  // The results document is written as the runs complete.
  util::JsonWriter json;
  json.begin_object().field("bench", "mp").field("machine_spec", machine_spec);
  json.field("transport", opt.transport).key("machines").begin_object();
  std::vector<sim::MachineModel> machines;
  for (const int ranks : rank_counts) {
    machines.push_back(sim::resolve_machine(machine_spec, ranks));
    json.key(std::to_string(ranks));
    sim::write_machine(json, machines.back());
  }
  json.end_object().key("matrices").begin_array();

  TextTable table("bench_mp — message-passing execution");
  table.set_header({"matrix", "program", "ranks", "seq s", "mp s", "msgs",
                    "MB moved", "peak MB", "x seq", "pred", "bitwise"});

  bool all_ok = true;
  for (const std::string& name : names) {
    const Prepared p = prepare_matrix(name, opt, /*need_gplu=*/false);
    const BlockLayout& lay = *p.setup.layout;

    SStarNumeric ref(lay);
    ref.assemble(p.setup.permuted);
    const WallTimer timer;
    ref.factorize();
    const double seq_seconds = timer.seconds();
    const long long seq_bytes = ref.data().size() * 8;  // the packed store
    json.begin_object().field("name", name).field("n", p.order);
    json.field("sequential_seconds", seq_seconds);
    json.field("sequential_store_bytes", seq_bytes).key("runs").begin_array();

    for (const sim::MachineModel& m : machines) {
      const int ranks = m.processors;
      struct Variant {
        const char* label;
        bool two_d;
      };
      for (const Variant v : {Variant{"1d-graph", false},
                              Variant{"2d-async", true}}) {
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
        // Sums over ranks of the measured and predicted peaks.
        const long long peak = st.peak_store_bytes_total();
        const long long predicted = pred.total_peak_bytes();
        std::vector<long long> rank_peaks, predicted_peaks;
        for (const exec::MpStats::RankMemoryStats& ms : st.memory)
          rank_peaks.push_back(ms.peak_bytes);
        for (const sim::MpMemoryPrediction::Rank& pr : pred.ranks)
          predicted_peaks.push_back(pr.peak_bytes);

        const bool identical = exec::factors_bitwise_equal(ref, mp);
        all_ok = all_ok && identical && peak == predicted;

        table.add_row(
            {matrix_label(p), v.label, std::to_string(ranks),
             fmt_double(seq_seconds, 3), fmt_double(st.seconds, 3),
             std::to_string(st.total_messages()),
             fmt_double(static_cast<double>(st.total_bytes()) / 1.0e6, 2),
             fmt_double(static_cast<double>(peak) / 1.0e6, 2),
             fmt_double(static_cast<double>(peak) /
                            static_cast<double>(seq_bytes),
                        2),
             peak == predicted ? "exact" : "MISMATCH",
             identical ? "ok" : "MISMATCH"});
        json.begin_object().field("ranks", ranks).field("program", v.label);
        json.field("mp_seconds", st.seconds);
        json.field("messages", st.total_messages());
        json.field("bytes", st.total_bytes());
        json.field("identical_to_sequential", identical);
        json.field("peak_store_bytes", peak);
        json.field("predicted_store_bytes", predicted);
        json.field("rank_peak_bytes", rank_peaks);
        json.field("predicted_rank_peak_bytes", predicted_peaks).end_object();
      }
    }
    json.end_array().end_object();
  }
  json.end_array().end_object();

  table.set_footnote(
      "mp = message-passing executor, one rank per thread or process "
      "(owner-only stores, serialized factor-panel traffic); 'peak MB' = "
      "sum over ranks of owned + panel-cache high water, 'x seq' = that "
      "sum over the sequential packed store, 'pred' = measured peak vs the "
      "sim/memory_model replay; 'bitwise' = merged MP factors identical "
      "to the sequential factorization.");
  table.print();

  write_results("mp", opt.json_path, json);
  return all_ok ? 0 : 1;
}
