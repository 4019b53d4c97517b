// 1D-data-mapping parallel sparse LU (§4.2, §5.1).
//
// Whole column blocks live on one processor (owner-computes); the only
// communication is the Factor(k) broadcast of the pivot sequence plus
// column block k. Two schedules: block-cyclic compute-ahead (Fig. 10)
// and graph scheduling (the RAPID substitute of sched/list_schedule).
//
// The built program is pure data (sim/event_sim.hpp): run_1d simulates
// it for the paper's parallel-time metrics, run_1d_real executes the
// same program's kernels on threads and run_1d_mp on message-passing
// ranks, both producing factors bitwise-identical to factorize().
#pragma once

#include "core/numeric.hpp"
#include "core/parallel_run.hpp"
#include "exec/executor.hpp"
#include "exec/lu_mp.hpp"
#include "sched/list_schedule.hpp"
#include "sim/event_sim.hpp"

namespace sstar {

enum class Schedule1DKind {
  kComputeAhead,  ///< Fig. 10
  kGraph,         ///< RAPID-style graph scheduling
};

/// Build the 1D parallel program for the given schedule (exposed for
/// tests and the paper-walkthrough example).
sim::ParallelProgram build_1d_program(const LuTaskGraph& graph,
                                      const sched::Schedule1D& schedule,
                                      const sim::MachineModel& machine);

/// Same, after scheduling the layout's task graph with `kind` on
/// machine.processors processors.
sim::ParallelProgram build_1d_program(const BlockLayout& layout,
                                      const sim::MachineModel& machine,
                                      Schedule1DKind kind);

/// Schedule, simulate, and summarize (timing only).
ParallelRunResult run_1d(const BlockLayout& layout,
                         const sim::MachineModel& machine,
                         Schedule1DKind kind, bool capture_gantt = false);

/// Real-execution path (DESIGN.md "Simulated vs. real execution"): build
/// the SAME 1D program, then run its kernels on `threads` hardware
/// threads instead of advancing virtual clocks. The schedule's processor
/// assignment becomes the worker affinity hints. Returns wall-clock
/// stats; the factors in `numeric` are bitwise-identical to a
/// sequential factorize().
exec::ExecStats run_1d_real(const BlockLayout& layout,
                            const sim::MachineModel& machine,
                            Schedule1DKind kind, SStarNumeric& numeric,
                            int threads = 0);

/// Message-passing execution (exec/lu_mp): build the SAME 1D program,
/// then run it with one thread per virtual processor, private numeric
/// replicas, and real factor-panel sends/receives over an in-process
/// transport. `machine.processors` is the rank count; `result` receives
/// the merged factors, bitwise-identical to a sequential factorize().
exec::MpStats run_1d_mp(const BlockLayout& layout,
                        const sim::MachineModel& machine, Schedule1DKind kind,
                        const SparseMatrix& a, SStarNumeric& result,
                        const exec::MpOptions& opt = {});

}  // namespace sstar
