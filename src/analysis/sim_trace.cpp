#include "analysis/sim_trace.hpp"

#include <algorithm>

namespace sstar::analysis {

trace::Trace simulated_trace(const sim::ParallelProgram& prog,
                             const sim::SimulationResult& res) {
  trace::Trace out;
  out.num_lanes = prog.processors();
  out.events.reserve(prog.num_tasks());

  for (std::size_t t = 0; t < prog.num_tasks(); ++t) {
    const sim::TaskDef& def = prog.task(static_cast<sim::TaskId>(t));
    const double t0 = res.start[t];
    const double t1 = res.finish[t];

    trace::TraceEvent base;
    base.lane = def.proc;
    base.task = static_cast<std::int32_t>(t);

    if (!def.kernels.empty()) {
      // One span per kernel call, the task interval split evenly (the
      // simulator prices the task as a whole; the split only affects
      // per-span attribution, not the chain or the makespan).
      const double slice =
          (t1 - t0) / static_cast<double>(def.kernels.size());
      for (std::size_t i = 0; i < def.kernels.size(); ++i) {
        const LuTask& call = def.kernels[i];
        trace::TraceEvent e = base;
        e.kind = call.type == LuTask::Type::kFactor
                     ? trace::EventKind::kFactor
                     : trace::EventKind::kUpdate;
        e.k = call.k;
        e.j = call.j;
        e.t0 = t0 + slice * static_cast<double>(i);
        e.t1 = i + 1 == def.kernels.size()
                   ? t1
                   : t0 + slice * static_cast<double>(i + 1);
        out.events.push_back(e);
      }
      continue;
    }

    // Kernel-less tasks: the SPMD builders' label vocabulary.
    if (def.label.empty()) continue;
    trace::TraceEvent e = base;
    switch (def.label[0]) {
      case 'F':
        e.kind = trace::EventKind::kFactor;
        break;
      case 'S':
        e.kind = trace::EventKind::kScale;
        break;
      case 'U':
        e.kind = trace::EventKind::kUpdate;
        break;
      default:
        continue;  // barriers and other bookkeeping
    }
    e.k = def.stage;
    e.t0 = t0;
    e.t1 = t1;
    out.events.push_back(e);
  }

  std::sort(out.events.begin(), out.events.end(),
            [](const trace::TraceEvent& a, const trace::TraceEvent& b) {
              if (a.t0 != b.t0) return a.t0 < b.t0;
              if (a.t1 != b.t1) return a.t1 < b.t1;
              return a.lane < b.lane;
            });
  return out;
}

}  // namespace sstar::analysis
