// Virtual-time trace of a simulated SPMD program execution.
//
// The discrete-event simulator (sim/event_sim) schedules every task of
// a ParallelProgram and records per-task start/finish times on the
// model machine's clock. This converter renders that schedule as a
// trace::Trace — one lane per virtual processor, one span per executed
// task — so the trace layer's analyzers (trace/analyze: phase
// breakdown, realized critical path, Gantt export) apply to simulated
// runs exactly as they do to measured ones. That is what the
// threshold-pivoting ablation (bench/bench_pivot) reports: the
// realized critical path of the simulated 2D execution is deterministic
// (no clock jitter, no host-core contention) and carries the model
// machine's communication physics, which a 1-core host wall clock
// cannot express.
//
// Span kinds: tasks that carry kernel descriptors export one span
// per call (kFactor / kUpdate), splitting the task interval evenly.
// Kernel-less tasks are classified by the SPMD builders' documented
// label vocabulary (core/lu_1d, core/lu_2d): F* (F1/FP/F2) -> kFactor,
// S* (SX/SW) -> kScale, U* (UF/UR) -> kUpdate; anything else (barriers)
// is omitted. Zero-duration tasks export instant events.
#pragma once

#include "sim/event_sim.hpp"
#include "trace/trace.hpp"

namespace sstar::analysis {

/// Render the simulated schedule of `prog` as a virtual-time trace.
/// `res` must come from sim::simulate() on the same program. The
/// resulting makespan (latest span end) equals res.makespan up to
/// omitted zero-cost bookkeeping tasks.
trace::Trace simulated_trace(const sim::ParallelProgram& prog,
                             const sim::SimulationResult& res);

}  // namespace sstar::analysis
