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
#include <string>
#include <vector>

#include "common.hpp"
#include "core/lu_1d.hpp"
#include "core/lu_2d.hpp"
#include "exec/lu_mp.hpp"
#include "sim/memory_model.hpp"

using namespace sstar;

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::print_preamble("Ablation — space scalability, 1D vs 2D (§5.2)",
                        opt);

  // The results document is written as the runs complete.
  util::JsonWriter json;
  json.begin_object().field("bench", "ablation_memory").key("matrices");
  json.begin_array();
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
    SStarNumeric seq(lay);
    seq.assemble(p.setup.permuted);
    seq.factorize();
    const long long seq_bytes = seq.data().size() * 8;
    json.begin_object().field("name", name).field("n", p.order);
    json.field("sequential_store_bytes", seq_bytes).key("runs").begin_array();

    TextTable measured(name + ": MEASURED per-rank peak store bytes "
                       "(owned + panel cache), sequential packed = " +
                       fmt_count(seq_bytes));
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

        // Most loaded rank and sum over ranks, measured; `exact` when
        // every rank's peak equals the refcount-replay prediction.
        long long max_peak = 0, total_peak = 0;
        bool exact = true;
        for (std::size_t r = 0; r < st.memory.size(); ++r) {
          max_peak = std::max<long long>(max_peak, st.memory[r].peak_bytes);
          total_peak += st.memory[r].peak_bytes;
          exact = exact && st.memory[r].peak_bytes == pred.ranks[r].peak_bytes;
        }

        measured.add_row(
            {v.label, std::to_string(np), fmt_count(max_peak),
             fmt_count(total_peak),
             fmt_double(static_cast<double>(total_peak) /
                            static_cast<double>(seq_bytes),
                        2),
             exact ? "exact" : "MISMATCH"});
        json.begin_object().field("program", v.label).field("ranks", np);
        json.field("max_rank_peak_bytes", max_peak);
        json.field("total_peak_bytes", total_peak);
        json.field("predicted_total_bytes", pred.total_peak_bytes());
        json.field("prediction_exact", exact).end_object();
      }
    }
    json.end_array().end_object();
    measured.print();
    std::printf("\n");
  }
  json.end_array().end_object();
  std::printf(
      "paper shape: 2D max data tracks S1/P (space-scalable); 1D data "
      "distribution is lumpier and its buffers grow with the overlap "
      "the schedule exploits. The measured tables are real executions "
      "over owner-only stores: total/seq > 1 is the panel-cache cost of "
      "distribution, and 'exact' states the refcount-replay prediction "
      "matched the measured peaks bit-for-bit.\n");

  bench::write_results("ablation_memory", opt.json_path, json);
  return 0;
}
