#include "core/parallel_run.hpp"

namespace sstar {

ParallelRunResult simulate_run(const sim::ParallelProgram& prog,
                               const sim::MachineModel& machine,
                               bool grid_columns, bool capture_gantt) {
  const sim::SimulationResult res = simulate(prog, machine);
  ParallelRunResult out;
  out.seconds = res.makespan;
  out.load_balance = res.load_balance();
  out.comm_bytes = res.comm_volume_bytes;
  out.messages = res.message_count;
  out.total_task_seconds = res.total_work;
  out.overlap_all = res.stage_overlap(prog, kKindUpdate);
  out.overlap_column =
      grid_columns
          ? res.stage_overlap_within_column(prog, kKindUpdate, machine.grid)
          : out.overlap_all;
  out.buffer_high_water = res.buffer_high_water(prog);
  if (capture_gantt) out.gantt = res.gantt(prog);
  return out;
}

}  // namespace sstar
