// Ablation: space scalability of the 1D vs 2D codes (§5.2).
//
// The paper's decisive argument for the 2D mapping: the total memory per
// processor is S1/p + O(1) buffers, while the 1D codes concentrate whole
// column blocks (and, to run asynchronously, buffers for several pivot
// stages) per processor — which is why the 1D codes could not hold the
// last six matrices of Table 6 at all. We report, per processor count:
// per-processor factor storage (max over procs) for both mappings, the
// measured communication-buffer high-water marks from simulated runs,
// and the paper's analytic 2D buffer bound.
//
// The second table per matrix is MEASURED, not analytic: the MP
// executor is run for real at small rank counts over owner-only
// DistBlockStores, and each rank's peak store bytes (owned area +
// panel-cache high water) is read back from MpStats::memory and checked
// against the sim/memory_model refcount replay — predicted-vs-measured
// memory, the space-side companion of the runtime validation. Results
// also land in JSON (default results/bench_ablation_memory.json,
// override with --json=PATH).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "exec/lu_mp.hpp"
#include "sim/memory_model.hpp"

using namespace sstar;

namespace {

struct MeasuredRun {
  std::string program;  // "1d-graph" or "2d-async"
  int ranks = 0;
  long long max_rank_peak_bytes = 0;   // most loaded rank, measured
  long long total_peak_bytes = 0;      // sum over ranks, measured
  long long predicted_total_bytes = 0; // refcount-replay prediction
  bool exact = false;                  // measured == predicted, per rank
};

struct MatrixEntry {
  std::string name;
  int n = 0;
  long long sequential_store_bytes = 0;
  std::vector<MeasuredRun> runs;
};

void write_json(const std::string& path,
                const std::vector<MatrixEntry>& entries) {
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
  out << "{\n  \"bench\": \"ablation_memory\",\n  \"matrices\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const MatrixEntry& m = entries[i];
    out << "    {\"name\": \"" << m.name << "\", \"n\": " << m.n
        << ", \"sequential_store_bytes\": " << m.sequential_store_bytes
        << ", \"runs\": [\n";
    for (std::size_t r = 0; r < m.runs.size(); ++r) {
      const MeasuredRun& run = m.runs[r];
      out << "      {\"program\": \"" << run.program
          << "\", \"ranks\": " << run.ranks
          << ", \"max_rank_peak_bytes\": " << run.max_rank_peak_bytes
          << ", \"total_peak_bytes\": " << run.total_peak_bytes
          << ", \"predicted_total_bytes\": " << run.predicted_total_bytes
          << ", \"prediction_exact\": " << (run.exact ? "true" : "false")
          << "}" << (r + 1 < m.runs.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("JSON written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::print_preamble("Ablation — space scalability, 1D vs 2D (§5.2)",
                        opt);

  std::vector<MatrixEntry> entries;
  for (const auto& name : opt.select({"goodwin", "ex11", "sherman5"})) {
    const auto p = bench::prepare_matrix(name, opt, false);
    const auto& lay = *p.setup.layout;
    const double s1 = 8.0 * static_cast<double>(lay.stored_entries());

    TextTable table(name + ": per-processor bytes (S1 = " +
                    fmt_count(static_cast<long long>(s1)) + ")");
    table.set_header({"P", "1D max data", "1D buf", "2D max data",
                      "2D buf", "2D bound", "1D max/S1", "2D max/(S1/P)"});
    for (const int np : {4, 16, 64, 128}) {
      const auto m = sim::MachineModel::cray_t3e(np);
      const auto d1 = sim::data_distribution_1d(lay, np);
      const auto d2 = sim::data_distribution_2d(lay, m.grid);
      const auto r1 = run_1d(lay, m.with_grid({1, np}),
                             Schedule1DKind::kGraph);
      const auto r2 = run_2d(lay, m, true);
      table.add_row(
          {std::to_string(np),
           fmt_count(static_cast<long long>(d1.max_bytes)),
           fmt_count(static_cast<long long>(r1.buffer_high_water)),
           fmt_count(static_cast<long long>(d2.max_bytes)),
           fmt_count(static_cast<long long>(r2.buffer_high_water)),
           fmt_count(static_cast<long long>(
               sim::buffer_bound_2d(lay, m.grid))),
           fmt_double(d1.max_bytes / s1, 3),
           fmt_double(d2.max_bytes / (s1 / np), 2)});
    }
    table.print();

    // Measured MP runs: real DistBlockStore footprints at small P.
    MatrixEntry entry;
    entry.name = name;
    entry.n = p.order;
    SStarNumeric seq(lay);
    seq.assemble(p.setup.permuted);
    seq.factorize();
    entry.sequential_store_bytes = seq.data().size() * 8;

    TextTable measured(name + ": MEASURED per-rank peak store bytes "
                       "(owned + panel cache), sequential packed = " +
                       fmt_count(entry.sequential_store_bytes));
    measured.set_header({"program", "P", "max rank peak", "total peak",
                         "total/seq", "prediction"});
    for (const int np : {2, 4, 8}) {
      const auto m = sim::MachineModel::cray_t3e(np);
      struct Variant {
        const char* label;
        bool two_d;
      };
      for (const Variant v : {Variant{"1d-graph", false},
                              Variant{"2d-async", true}}) {
        const sim::ParallelProgram prog =
            v.two_d ? build_2d_program(lay, m, /*async=*/true)
                    : build_1d_program(lay, m, Schedule1DKind::kGraph);
        const sim::MpMemoryPrediction pred =
            sim::predict_mp_memory(lay, prog);
        SStarNumeric mp(lay);
        const exec::MpStats st =
            exec::execute_program_mp(prog, p.setup.permuted, mp);

        MeasuredRun run;
        run.program = v.label;
        run.ranks = np;
        run.exact = true;
        for (std::size_t r = 0; r < st.memory.size(); ++r) {
          run.max_rank_peak_bytes =
              std::max<long long>(run.max_rank_peak_bytes,
                                  st.memory[r].peak_bytes);
          run.total_peak_bytes += st.memory[r].peak_bytes;
          run.exact =
              run.exact && st.memory[r].peak_bytes == pred.ranks[r].peak_bytes;
        }
        run.predicted_total_bytes = pred.total_peak_bytes();

        measured.add_row(
            {v.label, std::to_string(np),
             fmt_count(run.max_rank_peak_bytes),
             fmt_count(run.total_peak_bytes),
             fmt_double(static_cast<double>(run.total_peak_bytes) /
                            static_cast<double>(entry.sequential_store_bytes),
                        2),
             run.exact ? "exact" : "MISMATCH"});
        entry.runs.push_back(std::move(run));
      }
    }
    measured.print();
    std::printf("\n");
    entries.push_back(std::move(entry));
  }
  std::printf(
      "paper shape: 2D max data tracks S1/P (space-scalable); 1D data "
      "distribution is lumpier and its buffers grow with the overlap "
      "the schedule exploits. The measured tables are real executions "
      "over owner-only stores: total/seq > 1 is the panel-cache cost of "
      "distribution, and 'exact' states the refcount-replay prediction "
      "matched the measured peaks bit-for-bit.\n");

  write_json(opt.json_path.empty() ? "results/bench_ablation_memory.json"
                                   : opt.json_path,
             entries);
  return 0;
}
