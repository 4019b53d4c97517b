#include "core/lu_1d.hpp"

#include "core/task_model.hpp"
#include "sim/comm_plan.hpp"
#include "util/check.hpp"

namespace sstar {

sim::ParallelProgram build_1d_program(const LuTaskGraph& graph,
                                      const sched::Schedule1D& schedule,
                                      const sim::MachineModel& machine) {
  const sched::TaskCosts costs = sched::model_costs(graph, machine);
  sim::ParallelProgram prog(machine.processors);

  std::vector<sim::TaskId> sim_id(graph.num_tasks(), -1);
  for (int p = 0; p < machine.processors; ++p) {
    for (const int t : schedule.proc_order[p]) {
      const LuTask& task = graph.task(t);
      sim::TaskDef def;
      def.proc = p;
      def.seconds = costs.task_seconds[t];
      def.stage = task.k;
      if (task.type == LuTask::Type::kFactor) {
        def.kind = kKindFactor;
        def.label = "F(" + std::to_string(task.k) + ")";
      } else {
        def.kind = kKindUpdate;
        def.label =
            "U(" + std::to_string(task.k) + "," + std::to_string(task.j) + ")";
      }
      def.kernels.push_back(task);
      sim_id[t] = prog.add_task(std::move(def));
    }
  }
  for (int t = 0; t < graph.num_tasks(); ++t)
    SSTAR_CHECK_MSG(sim_id[t] >= 0, "schedule omitted task " << t);

  for (const LuTaskEdge& e : graph.edges()) {
    const LuTask& from = graph.task(e.from);
    const LuTask& to = graph.task(e.to);
    const bool is_broadcast = from.type == LuTask::Type::kFactor &&
                              to.type == LuTask::Type::kUpdate &&
                              from.k == to.k;
    if (is_broadcast) {
      prog.add_message(sim_id[e.from], sim_id[e.to],
                       costs.factor_bytes[from.k]);
    } else {
      prog.add_dependency(sim_id[e.from], sim_id[e.to]);
    }
  }
  // Message-passing execution (exec/lu_mp) interprets explicit send/recv
  // descriptors; 1D mappings broadcast each factor panel by direct
  // fan-out from the owning rank.
  sim::attach_panel_comms(prog);
  return prog;
}

sim::ParallelProgram build_1d_program(const BlockLayout& layout,
                                      const sim::MachineModel& machine,
                                      Schedule1DKind kind) {
  const LuTaskGraph graph(layout);
  return build_1d_program(
      graph,
      kind == Schedule1DKind::kComputeAhead
          ? sched::compute_ahead_schedule(graph, machine.processors)
          : sched::graph_schedule(graph, machine),
      machine);
}

ParallelRunResult run_1d(const BlockLayout& layout,
                         const sim::MachineModel& machine,
                         Schedule1DKind kind, bool capture_gantt) {
  return simulate_run(build_1d_program(layout, machine, kind), machine,
                      /*grid_columns=*/false, capture_gantt);
}

exec::MpStats run_1d_mp(const BlockLayout& layout,
                        const sim::MachineModel& machine, Schedule1DKind kind,
                        const SparseMatrix& a, SStarNumeric& result,
                        const exec::MpOptions& opt) {
  return exec::execute_program_mp(build_1d_program(layout, machine, kind), a,
                                  result, opt);
}

}  // namespace sstar
