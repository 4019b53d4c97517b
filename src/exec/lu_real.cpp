#include "exec/lu_real.hpp"

#include <cstring>

#include "analysis/access_log.hpp"
#include "util/check.hpp"

namespace sstar::exec {

void run_lu_task(SStarNumeric& numeric, const LuTask& task) {
  if (task.type == LuTask::Type::kFactor) {
    numeric.factor_block(task.k);
    return;
  }
  numeric.scale_swap(task.k, task.j);
  numeric.update_block(task.k, task.j);
  // One consuming use of panel k done: a rank's DistBlockStore frees its
  // cached copy after the last declared consumer (no-op for owned panels
  // and for the packed store).
  numeric.data().on_panel_consumed(task.k);
}

ExecStats factorize_parallel(const LuTaskGraph& graph, SStarNumeric& numeric,
                             int threads) {
  const auto body = [&graph, &numeric](int t) {
    SSTAR_AUDIT_TASK(t);
    run_lu_task(numeric, graph.task(t));
  };
  std::vector<DagTask> tasks(static_cast<std::size_t>(graph.num_tasks()));
  for (int t = 0; t < graph.num_tasks(); ++t) {
    DagTask& dt = tasks[static_cast<std::size_t>(t)];
    // Two words: std::function keeps it inline, with no allocation.
    dt.run = [&body, t] { body(t); };
    // The tasks of column block j land on worker j mod threads at
    // every stage k, which also preserves property-3 locality.
    dt.affinity = graph.task(t).j;
  }

  std::vector<DagEdge> edges;
  edges.reserve(graph.edges().size());
  for (const LuTaskEdge& e : graph.edges()) edges.push_back({e.from, e.to});

  ExecOptions eo;
  eo.threads = threads;
  return run_dag(tasks, edges, eo);
}

ExecStats factorize_parallel(SStarNumeric& numeric, int threads) {
  const LuTaskGraph graph(numeric.layout());
  return factorize_parallel(graph, numeric, threads);
}

ExecStats execute_program(const sim::ParallelProgram& prog,
                          SStarNumeric& numeric, int threads) {
  const int n = static_cast<int>(prog.num_tasks());
  std::vector<DagTask> tasks(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    const sim::TaskDef& def = prog.task(t);
    DagTask& dt = tasks[static_cast<std::size_t>(t)];
    if (!def.kernels.empty()) {
      dt.run = [&numeric, &def, t] {
        SSTAR_AUDIT_TASK(t);
        for (const LuTask& task : def.kernels) run_lu_task(numeric, task);
      };
    }
    dt.affinity = def.proc;
  }

  std::vector<DagEdge> edges;
  for (const auto& [from, to] : prog.happens_before_edges())
    edges.push_back({from, to});

  ExecOptions eo;
  eo.threads = threads;
  return run_dag(tasks, edges, eo);
}

bool factors_bitwise_equal(const SStarNumeric& a, const SStarNumeric& b) {
  const BlockLayout& lay = a.layout();
  if (lay.n() != b.layout().n() ||
      lay.num_blocks() != b.layout().num_blocks())
    return false;
  if (a.pivot_of_col() != b.pivot_of_col()) return false;

  const BlockStore& da = a.data();
  const BlockStore& db = b.data();
  auto same = [](const double* x, const double* y, std::int64_t count) {
    // memcmp: bitwise, not numeric — distinguishes -0.0/0.0 and NaNs.
    return count == 0 ||
           std::memcmp(x, y, static_cast<std::size_t>(count) *
                                 sizeof(double)) == 0;
  };
  for (int k = 0; k < lay.num_blocks(); ++k) {
    const std::int64_t w = lay.width(k);
    const std::int64_t nr = static_cast<std::int64_t>(lay.panel_rows(k).size());
    const std::int64_t nc = static_cast<std::int64_t>(lay.panel_cols(k).size());
    if (!same(da.diag(k), db.diag(k), w * w) ||
        !same(da.l_panel(k), db.l_panel(k), nr * w) ||
        !same(da.u_panel(k), db.u_panel(k), w * nc))
      return false;
  }
  return true;
}

}  // namespace sstar::exec
