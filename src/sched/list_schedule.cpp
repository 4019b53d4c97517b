#include "sched/list_schedule.hpp"

#include <algorithm>
#include <queue>

#include "core/task_model.hpp"
#include "util/check.hpp"

namespace sstar::sched {

TaskCosts model_costs(const LuTaskGraph& graph, const sim::MachineModel& m) {
  const BlockLayout& lay = graph.layout();
  TaskCosts costs;
  costs.task_seconds.resize(graph.num_tasks());
  costs.factor_bytes.resize(lay.num_blocks());
  for (int t = 0; t < graph.num_tasks(); ++t) {
    const LuTask& task = graph.task(t);
    const blas::FlopCount f =
        task.type == LuTask::Type::kFactor
            ? factor_task_flops(lay, task.k)
            : update_task_flops(lay, task.k, task.j);
    costs.task_seconds[t] = m.compute_seconds(
        static_cast<double>(f.blas1), static_cast<double>(f.blas2),
        static_cast<double>(f.blas3));
  }
  for (int k = 0; k < lay.num_blocks(); ++k)
    costs.factor_bytes[k] = column_block_bytes(lay, k);
  return costs;
}

std::vector<double> bottom_levels(const LuTaskGraph& graph,
                                  const TaskCosts& costs,
                                  const sim::MachineModel& m) {
  std::vector<double> bl(graph.num_tasks(), 0.0);
  // Task ids are a topological order: successors have higher ids.
  for (int t = graph.num_tasks() - 1; t >= 0; --t) {
    double best = 0.0;
    for (const int s : graph.succs(t)) {
      double edge = 0.0;
      if (graph.task(t).type == LuTask::Type::kFactor &&
          graph.task(s).type == LuTask::Type::kUpdate &&
          graph.task(s).k == graph.task(t).k) {
        edge = m.comm_seconds(costs.factor_bytes[graph.task(t).k]);
      }
      best = std::max(best, edge + bl[s]);
    }
    bl[t] = best + costs.task_seconds[t];
  }
  return bl;
}

namespace {
// Owner block of a task under the owner-computes rule: Update(k, j)
// modifies column block j; Factor(k) modifies block k.
int owner_block(const LuTask& t) { return t.j; }
}  // namespace

Schedule1D compute_ahead_schedule(const LuTaskGraph& graph, int processors) {
  const BlockLayout& lay = graph.layout();
  const int nb = lay.num_blocks();
  Schedule1D s;
  s.block_owner.resize(nb);
  for (int b = 0; b < nb; ++b) s.block_owner[b] = b % processors;
  s.proc_order.resize(processors);

  // Fig. 10's global order, filtered per processor.
  auto emit = [&](int t) {
    if (t < 0) return;
    s.proc_order[s.block_owner[owner_block(graph.task(t))]].push_back(t);
  };
  emit(graph.factor_task(0));
  for (int k = 0; k < nb; ++k) {
    if (k + 1 < nb) {
      emit(graph.update_task(k, k + 1));
      emit(graph.factor_task(k + 1));
    }
    for (const BlockRef& uref : lay.u_blocks(k)) {
      if (uref.block >= k + 2) emit(graph.update_task(k, uref.block));
    }
  }
  return s;
}

Schedule1D graph_schedule(const LuTaskGraph& graph,
                          const sim::MachineModel& m) {
  // Our RAPID substitute keeps the owner-computes cyclic mapping (which
  // the compute-ahead code also uses, and which balances load well) and
  // derives each processor's task ORDER from a global b-level list
  // schedule — tasks on the critical path run as early as dependences
  // allow. This captures precisely the Fig. 11 effect (Factor tasks
  // hoisted above less-urgent updates) and reproduces the paper's
  // empirical pattern: at 2-4 processors compute-ahead is occasionally a
  // touch faster, beyond that graph scheduling wins. Mapping refinement
  // is left where the paper leaves it — as an open problem.
  const BlockLayout& lay = graph.layout();
  const int nb = lay.num_blocks();
  const int p = m.processors;
  const TaskCosts costs = model_costs(graph, m);
  const std::vector<double> bl = bottom_levels(graph, costs, m);

  Schedule1D s;
  s.block_owner.resize(nb);
  for (int b = 0; b < nb; ++b) s.block_owner[b] = b % p;
  s.proc_order.resize(p);

  // Timed list scheduling: whenever a processor goes idle it dispatches,
  // among its tasks whose inputs have arrived, the one with the highest
  // b-level. This is the discipline RAPID's scheduler enforces and what
  // produces the Fig. 11 effect (a critical-path Factor overtakes a
  // less-urgent Update even though the sequential order says otherwise).
  const int n = graph.num_tasks();
  std::vector<int> remaining(n, 0);
  std::vector<double> finish(n, 0.0);
  std::vector<double> data_ready(n, 0.0);
  std::vector<int> task_proc(n);
  for (int t = 0; t < n; ++t) {
    remaining[t] = static_cast<int>(graph.preds(t).size());
    task_proc[t] = s.block_owner[owner_block(graph.task(t))];
  }

  // pending[p]: tasks with all predecessors scheduled, awaiting dispatch.
  std::vector<std::vector<int>> pending(p);
  for (int t = 0; t < n; ++t)
    if (remaining[t] == 0) pending[task_proc[t]].push_back(t);

  std::vector<double> proc_time(p, 0.0);
  int scheduled = 0;
  while (scheduled < n) {
    // Choose the processor able to start the earliest; ties by id.
    int best_proc = -1, best_task = -1;
    double best_start = 0.0;
    for (int q = 0; q < p; ++q) {
      if (pending[q].empty()) continue;
      // Earliest possible start on q and, at that instant, the highest
      // b-level task whose data has arrived.
      double earliest = 1e300;
      for (const int t : pending[q])
        earliest = std::min(earliest, std::max(proc_time[q], data_ready[t]));
      int pick = -1;
      for (const int t : pending[q]) {
        if (std::max(proc_time[q], data_ready[t]) > earliest + 1e-18)
          continue;
        if (pick < 0 || bl[t] > bl[pick] ||
            (bl[t] == bl[pick] && t < pick))
          pick = t;
      }
      if (best_proc < 0 || earliest < best_start - 1e-18) {
        best_proc = q;
        best_task = pick;
        best_start = earliest;
      }
    }
    SSTAR_CHECK(best_task >= 0);

    const int t = best_task;
    pending[best_proc].erase(
        std::find(pending[best_proc].begin(), pending[best_proc].end(), t));
    finish[t] = best_start + costs.task_seconds[t];
    proc_time[best_proc] = finish[t];
    s.proc_order[best_proc].push_back(t);
    ++scheduled;

    for (const int succ : graph.succs(t)) {
      double arrive = finish[t];
      if (task_proc[succ] != best_proc &&
          graph.task(t).type == LuTask::Type::kFactor &&
          graph.task(succ).type == LuTask::Type::kUpdate &&
          graph.task(succ).k == graph.task(t).k) {
        arrive += m.comm_seconds_between(best_proc, task_proc[succ],
                                         costs.factor_bytes[graph.task(t).k]);
      }
      data_ready[succ] = std::max(data_ready[succ], arrive);
      if (--remaining[succ] == 0)
        pending[task_proc[succ]].push_back(succ);
    }
  }
  return s;
}

}  // namespace sstar::sched
