// Deterministic discrete-event simulator for SPMD task programs.
//
// A ParallelProgram is: per virtual processor, an ORDERED list of tasks
// (the processor's program order, like the SPMD loops of Figs. 10/12),
// plus point-to-point messages between tasks. A task starts when its
// predecessor on the same processor has finished AND all its incoming
// messages have arrived (arrival = sender finish + latency + bytes /
// bandwidth, the RMA put model); it finishes after its modeled compute
// time. A program is pure data: each task names the LU kernels it
// stands for (LuTask descriptors) and simulate() only keeps time, so
// one built program can be simulated, executed on threads
// (exec::execute_program) or on ranks (exec::execute_program_mp),
// audited and trace-validated without being rebuilt.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/task_graph.hpp"
#include "sim/machine.hpp"

namespace sstar::sim {

using TaskId = int;

/// One point-to-point transfer in the message-passing execution of a
/// task (exec/lu_mp): kSend posts block k's factor-panel payload to
/// `peer`, kRecv blocks until that payload arrives from `peer`. The
/// comm planner (sim/comm_plan) attaches these next to the kernel
/// descriptors; the simulator ignores them (it has its own message
/// edges), the MP executor interprets them against a real Transport.
struct CommOp {
  enum class Kind { kSend, kRecv };
  Kind kind = Kind::kSend;
  int peer = 0;  ///< destination rank (kSend) / source rank (kRecv)
  int k = 0;     ///< supernode whose factor panel moves; also the tag
};

struct TaskDef {
  int proc = 0;             ///< owning virtual processor
  double seconds = 0.0;     ///< modeled execution time
  std::string label;        ///< e.g. "F(3)", "U(3,7)" (Gantt output)
  int stage = -1;           ///< elimination step k (metrics); -1 = none
  int kind = 0;             ///< caller-defined tag (metrics filtering)
  /// LU kernels this task performs, in order: Factor(k) or the combined
  /// ScaleSwap(k, j) + Update(k, j). Executors run them, the auditors
  /// derive access sets from them; modeling-only tasks carry none.
  std::vector<LuTask> kernels = {};
  std::vector<CommOp> pre_comms = {};    ///< transfers before the kernels
  std::vector<CommOp> post_comms = {};   ///< transfers after the kernels
};

struct MessageDef {
  TaskId from = 0;
  TaskId to = 0;
  double bytes = 0.0;
};

class ParallelProgram;
class SimulationResult;
SimulationResult simulate(const ParallelProgram& prog,
                          const MachineModel& machine);

class ParallelProgram {
 public:
  explicit ParallelProgram(int processors) : procs_(processors) {}

  int processors() const { return procs_; }

  /// Append a task to a processor's program order; returns its id.
  TaskId add_task(TaskDef def);

  /// Add a message edge. Self-messages (same processor) are treated as
  /// plain ordering constraints with zero cost.
  void add_message(TaskId from, TaskId to, double bytes);

  /// A pure ordering edge (no data, no cost beyond ordering).
  void add_dependency(TaskId from, TaskId to) { add_message(from, to, -1.0); }

  std::size_t num_tasks() const { return tasks_.size(); }
  const TaskDef& task(TaskId t) const { return tasks_[t]; }
  /// Mutable access for post-construction annotation passes (the comm
  /// planner attaches pre/post CommOps to already-built programs).
  TaskDef& mutable_task(TaskId t) { return tasks_[t]; }

  /// A processor's tasks in program order (exec/lu_real runs the same
  /// program on real threads; program order is a dependency there too).
  const std::vector<TaskId>& proc_order(int p) const { return order_[p]; }
  /// Every message/ordering edge (bytes < 0 marks a pure dependency).
  const std::vector<MessageDef>& messages() const { return messages_; }

  /// The happens-before relation the real executor runs and every
  /// auditor checks against, as (from, to) edges: consecutive tasks of
  /// each processor's program order, then every message edge.
  std::vector<std::pair<TaskId, TaskId>> happens_before_edges() const {
    std::vector<std::pair<TaskId, TaskId>> edges;
    edges.reserve(tasks_.size() + messages_.size());
    for (const std::vector<TaskId>& order : order_)
      for (std::size_t i = 1; i < order.size(); ++i)
        edges.emplace_back(order[i - 1], order[i]);
    for (const MessageDef& m : messages_) edges.emplace_back(m.from, m.to);
    return edges;
  }

 private:
  friend class SimulationResult;
  friend SimulationResult simulate(const ParallelProgram&,
                                   const MachineModel&);
  int procs_;
  std::vector<TaskDef> tasks_;
  std::vector<std::vector<TaskId>> order_;  // per proc
  std::vector<MessageDef> messages_;
};

/// Per-task schedule plus aggregate metrics.
class SimulationResult {
 public:
  double makespan = 0.0;             ///< parallel time, seconds
  std::vector<double> start;         ///< per task
  std::vector<double> finish;        ///< per task
  std::vector<double> busy;          ///< per proc: sum of task seconds
  double total_work = 0.0;           ///< sum of task seconds
  double comm_volume_bytes = 0.0;    ///< sum over cross-proc messages
  std::int64_t message_count = 0;    ///< cross-proc messages

  /// Load balance factor work_total / (P * work_max), as in Fig. 18.
  double load_balance() const;

  /// Maximum stage-overlap among concurrently executing tasks of the
  /// given kind: max over time of (max stage - min stage). Theorem 2.
  int stage_overlap(const ParallelProgram& prog, int kind) const;
  /// Same, restricted to processors in one column of the given grid
  /// (procs are numbered row-major: proc = r * grid.cols + c).
  int stage_overlap_within_column(const ParallelProgram& prog, int kind,
                                  const Grid& grid) const;

  /// High-water mark, over time and processors, of bytes of messages
  /// that have arrived at a processor but whose consuming task has not
  /// yet started (the communication-buffer residency of §5.2).
  double buffer_high_water(const ParallelProgram& prog) const;

  /// Render an ASCII Gantt chart (small programs; used by the paper
  /// walkthrough example reproducing Fig. 11).
  std::string gantt(const ParallelProgram& prog, int width = 72) const;

 private:
  friend SimulationResult simulate(const ParallelProgram&,
                                   const MachineModel&);
  std::vector<std::pair<double, double>> msg_residency_;  // arrival, consume
  std::vector<int> msg_dest_proc_;
  std::vector<double> msg_bytes_;
};

/// Run the program on the machine's clocks (no kernel executes). Throws
/// CheckError if the program deadlocks (inconsistent program order vs.
/// messages).
SimulationResult simulate(const ParallelProgram& prog,
                          const MachineModel& machine);

}  // namespace sstar::sim
