// Predicted-vs-measured validation: replay the factorization's SPMD
// program through the discrete-event simulator and reconcile its
// predictions with a measured execution trace of the same program.
//
// Three questions, mirroring how the paper validates its model (§6):
//  1. Per task — how far is each task's measured kernel time from the
//     machine model's prediction (TaskDef::seconds)?
//  2. End to end — how does the measured makespan compare with the
//     simulated one?
//  3. Soundness — does the measured event order ever CONTRADICT the
//     program's happens-before relation (program order per rank plus
//     message edges)? A contradiction means an executor ran a task
//     before a dependence predecessor finished; each one is
//     cross-checked against the tasks' declared block access sets
//     (analysis/access_sets) to classify it as a conflicting-access
//     race or a benign reordering of independent work. Benign
//     reorderings are expected where the model's edges are stricter
//     than the real synchronization (the 2D program charges pivot
//     coordination as message edges the MP runtime does not replay);
//     a CONFLICTING one means an executor raced on shared blocks and
//     fails the validation.
//
// The program is the one the measured run executed: programs are pure
// data and simulate() only keeps time, so validating never reruns a
// kernel or rebuilds the program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_sim.hpp"
#include "sim/machine.hpp"
#include "supernode/block_layout.hpp"
#include "trace/trace.hpp"

namespace sstar::trace {

/// Measured vs predicted times of one program task that appeared in the
/// trace.
struct TaskDelta {
  int task = -1;
  std::string label;
  double measured_start = 0.0;     ///< min span t0 over the task's events
  double measured_finish = 0.0;    ///< max span t1
  double measured_seconds = 0.0;   ///< sum of kernel span durations
  double predicted_seconds = 0.0;  ///< TaskDef::seconds (machine model)
  double predicted_start = 0.0;    ///< simulate() start
  double predicted_finish = 0.0;   ///< simulate() finish
};

/// A measured ordering that contradicts a program happens-before path:
/// the program orders a before b, but b started before a finished.
struct OrderViolation {
  int task_a = -1;
  int task_b = -1;
  std::string label_a;
  std::string label_b;
  double finish_a = 0.0;  ///< measured finish of the predecessor
  double start_b = 0.0;   ///< measured start of the successor
  bool conflicting = false;  ///< declared access sets conflict (race)

  std::string message() const;
};

struct ValidationReport {
  std::size_t program_tasks = 0;   ///< tasks in the program
  std::size_t measured_tasks = 0;  ///< tasks with at least one span
  std::size_t kernel_tasks = 0;    ///< program tasks carrying kernels
  std::vector<TaskDelta> tasks;    ///< measured tasks, by task id

  double measured_makespan = 0.0;   ///< max event t1 in the trace
  double predicted_makespan = 0.0;  ///< simulate() makespan
  std::int64_t pairs_checked = 0;   ///< ordered measured pairs examined
  std::vector<OrderViolation> violations;

  /// measured / predicted makespan (0 when prediction is degenerate).
  double makespan_ratio() const;
  /// Mean of |measured - predicted| / predicted over measured tasks
  /// with a positive prediction.
  double mean_abs_duration_error() const;

  std::size_t conflicting_violations() const;
  /// Sound iff no CONFLICTING-access pair executed out of order.
  bool ok() const { return conflicting_violations() == 0; }
  /// Paper-style text report: totals, worst per-task deltas, every
  /// ordering violation.
  std::string summary() const;
};

/// Validate `trace` against `prog` under `machine`. The trace's kernel
/// spans must be tagged with `prog`'s task ids (the MP runtime and
/// execute_program do this); untagged spans are ignored. Throws
/// CheckError if a span's task id is out of range.
ValidationReport validate_trace(const sim::ParallelProgram& prog,
                                const BlockLayout& layout,
                                const sim::MachineModel& machine,
                                const Trace& trace);

}  // namespace sstar::trace
