#include "core/solve_1d.hpp"

#include "core/solve_graph.hpp"
#include "util/check.hpp"

namespace sstar {

ParallelRunResult run_solve_1d(const SStarNumeric& numeric,
                               const sim::MachineModel& machine) {
  const BlockLayout& lay = numeric.layout();
  const int nb = lay.num_blocks();
  const int p = machine.processors;
  sim::ParallelProgram prog(p);

  // Forward tasks in block order, backward tasks in reverse, all cyclic.
  std::vector<sim::TaskId> fs(nb), bs(nb);
  for (int k = 0; k < nb; ++k) {
    const double w = lay.width(k);
    const double nr = static_cast<double>(lay.panel_rows(k).size());
    sim::TaskDef def;
    def.proc = k % p;
    // Diagonal solve w^2 + panel eliminations 2*w*nr, BLAS-2 class.
    def.seconds = machine.compute_seconds(0.0, w * w + 2.0 * w * nr, 0.0);
    def.label = "FS(" + std::to_string(k) + ")";
    def.stage = k;
    def.kind = kKindUpdate;
    fs[k] = prog.add_task(std::move(def));
  }
  for (int k = nb - 1; k >= 0; --k) {
    const double w = lay.width(k);
    const double nc = static_cast<double>(lay.panel_cols(k).size());
    sim::TaskDef def;
    def.proc = k % p;
    def.seconds = machine.compute_seconds(0.0, w * w + 2.0 * w * nc, 0.0);
    def.label = "BS(" + std::to_string(k) + ")";
    def.stage = nb - 1 - k;
    def.kind = kKindUpdate;
    bs[k] = prog.add_task(std::move(def));
  }

  // Dependences come from the shared solve DAG (core/solve_graph): the
  // per-row-block forward writer chains (which subsume the old explicit
  // pivot edges — a pivot target always lies in a panel row, i.e. a row
  // block both FS tasks write), FS(k) -> BS(k), and BS(j) -> BS(k) per
  // nonzero U block (k, j). Messages carry the accumulated partial sums
  // for the destination block's rows.
  SSTAR_CHECK_MSG(numeric.pivot_of_col().empty() ||
                      numeric.pivot_of_col()[0] >= 0,
                  "run_solve_1d before factorize");
  const SolveGraph graph(lay);
  for (const auto& e : graph.edges()) {
    const int bu = graph.block_of(e.first);
    const int bv = graph.block_of(e.second);
    const sim::TaskId u = graph.is_forward(e.first) ? fs[bu] : bs[bu];
    const sim::TaskId v = graph.is_forward(e.second) ? fs[bv] : bs[bv];
    if ((bu % p) == (bv % p))
      prog.add_dependency(u, v);
    else
      prog.add_message(u, v, 8.0 * lay.width(bv));
  }

  return simulate_run(prog, machine, /*grid_columns=*/false);
}

}  // namespace sstar
