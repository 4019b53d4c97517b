#include "trace/validate.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "analysis/access_sets.hpp"
#include "analysis/reachability.hpp"
#include "util/check.hpp"

namespace sstar::trace {

namespace {

bool access_sets_conflict(const std::vector<analysis::BlockAccess>& a,
                          const std::vector<analysis::BlockAccess>& b) {
  for (const analysis::BlockAccess& x : a)
    for (const analysis::BlockAccess& y : b)
      if (x.block == y.block && (x.access == analysis::Access::kWrite ||
                                 y.access == analysis::Access::kWrite))
        return true;
  return false;
}

}  // namespace

std::string OrderViolation::message() const {
  std::ostringstream os;
  os << (conflicting ? "CONFLICTING" : "benign") << " order violation: "
     << label_a << " [task " << task_a << "] happens-before " << label_b
     << " [task " << task_b << "] in the program, but " << label_b
     << " started at " << start_b << " s while " << label_a
     << " finished at " << finish_a << " s";
  return os.str();
}

double ValidationReport::makespan_ratio() const {
  return predicted_makespan > 0.0 ? measured_makespan / predicted_makespan
                                  : 0.0;
}

std::size_t ValidationReport::conflicting_violations() const {
  std::size_t n = 0;
  for (const OrderViolation& v : violations)
    if (v.conflicting) ++n;
  return n;
}

double ValidationReport::mean_abs_duration_error() const {
  double sum = 0.0;
  int n = 0;
  for (const TaskDelta& d : tasks) {
    if (d.predicted_seconds <= 0.0) continue;
    sum += std::abs(d.measured_seconds - d.predicted_seconds) /
           d.predicted_seconds;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

std::string ValidationReport::summary() const {
  std::ostringstream os;
  os << "predicted-vs-measured validation\n"
     << "  program tasks: " << program_tasks << " (" << kernel_tasks
     << " with kernels), measured: " << measured_tasks << "\n";
  char line[160];
  std::snprintf(line, sizeof line,
                "  makespan: measured %.6f s, predicted %.6f s (ratio %.3f)\n",
                measured_makespan, predicted_makespan, makespan_ratio());
  os << line;
  std::snprintf(line, sizeof line,
                "  mean |measured-predicted|/predicted task time: %.1f%%\n",
                100.0 * mean_abs_duration_error());
  os << line;

  // The worst-modeled tasks, largest relative error first.
  std::vector<const TaskDelta*> worst;
  for (const TaskDelta& d : tasks)
    if (d.predicted_seconds > 0.0) worst.push_back(&d);
  std::sort(worst.begin(), worst.end(),
            [](const TaskDelta* a, const TaskDelta* b) {
              const double ea = std::abs(a->measured_seconds -
                                         a->predicted_seconds) /
                                a->predicted_seconds;
              const double eb = std::abs(b->measured_seconds -
                                         b->predicted_seconds) /
                                b->predicted_seconds;
              return ea > eb;
            });
  const std::size_t show = std::min<std::size_t>(5, worst.size());
  if (show > 0) os << "  worst-modeled tasks:\n";
  for (std::size_t i = 0; i < show; ++i) {
    const TaskDelta& d = *worst[i];
    std::snprintf(line, sizeof line,
                  "    %-10s measured %.6f s  predicted %.6f s\n",
                  d.label.c_str(), d.measured_seconds, d.predicted_seconds);
    os << line;
  }

  const std::size_t conflicting = conflicting_violations();
  os << "  ordering: " << pairs_checked << " ordered pair(s) checked, "
     << conflicting << " conflicting violation(s), "
     << violations.size() - conflicting
     << " benign reordering(s) of independent tasks\n";
  // Every conflicting violation is printed (each is a failure); benign
  // reorderings — model edges stricter than the real synchronization —
  // are summarized with a few examples.
  std::size_t benign_shown = 0;
  for (const OrderViolation& v : violations) {
    if (!v.conflicting && ++benign_shown > 4) continue;
    os << "    " << v.message() << "\n";
  }
  if (benign_shown > 4)
    os << "    ... and " << benign_shown - 4 << " more benign reordering(s)\n";
  return os.str();
}

ValidationReport validate_trace(const sim::ParallelProgram& prog,
                                const BlockLayout& layout,
                                const sim::MachineModel& machine,
                                const Trace& trace) {
  const int n = static_cast<int>(prog.num_tasks());
  ValidationReport report;
  report.program_tasks = static_cast<std::size_t>(n);
  for (int t = 0; t < n; ++t)
    if (!prog.task(t).kernels.empty()) ++report.kernel_tasks;

  // Measured per-task extents from the tagged kernel spans.
  std::map<int, TaskDelta> measured;
  for (const TraceEvent& e : trace.events) {
    report.measured_makespan = std::max(report.measured_makespan, e.t1);
    if (!is_kernel(e.kind) || e.task < 0) continue;
    SSTAR_CHECK_MSG(e.task < n, "trace span tagged with task "
                                    << e.task << " but the program has only "
                                    << n << " tasks");
    auto [it, fresh] = measured.try_emplace(e.task);
    TaskDelta& d = it->second;
    if (fresh) {
      d.task = e.task;
      d.label = analysis::task_label(prog, e.task);
      d.measured_start = e.t0;
      d.measured_finish = e.t1;
    } else {
      d.measured_start = std::min(d.measured_start, e.t0);
      d.measured_finish = std::max(d.measured_finish, e.t1);
    }
    d.measured_seconds += e.t1 - e.t0;
  }

  // Predictions from the discrete-event simulator.
  const sim::SimulationResult sim = sim::simulate(prog, machine);
  report.predicted_makespan = sim.makespan;
  for (auto& [t, d] : measured) {
    d.predicted_seconds = prog.task(t).seconds;
    d.predicted_start = sim.start[static_cast<std::size_t>(t)];
    d.predicted_finish = sim.finish[static_cast<std::size_t>(t)];
    report.tasks.push_back(d);
  }
  report.measured_tasks = report.tasks.size();

  // Happens-before relation: program order per processor + every
  // message/dependency edge; transitive so unmeasured relay tasks
  // (e.g. pure comm steps) still propagate the ordering obligation.
  // Only the measured tasks are compared, so only they keep a row.
  std::vector<int> compared;
  compared.reserve(report.tasks.size());
  for (const TaskDelta& d : report.tasks) compared.push_back(d.task);
  const analysis::Reachability reach(n, prog.happens_before_edges(),
                                     compared);

  for (std::size_t ia = 0; ia < report.tasks.size(); ++ia) {
    for (std::size_t ib = 0; ib < report.tasks.size(); ++ib) {
      if (ia == ib) continue;
      const TaskDelta& a = report.tasks[ia];
      const TaskDelta& b = report.tasks[ib];
      if (!reach.reaches(a.task, b.task)) continue;
      ++report.pairs_checked;
      if (b.measured_start >= a.measured_finish) continue;
      OrderViolation v;
      v.task_a = a.task;
      v.task_b = b.task;
      v.label_a = a.label;
      v.label_b = b.label;
      v.finish_a = a.measured_finish;
      v.start_b = b.measured_start;
      v.conflicting = access_sets_conflict(
          analysis::task_access_set(prog, layout, a.task),
          analysis::task_access_set(prog, layout, b.task));
      report.violations.push_back(v);
    }
  }
  return report;
}

}  // namespace sstar::trace
