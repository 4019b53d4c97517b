// Dynamic block-access recording — the runtime half of the dependence
// auditor.
//
// When the library is configured with -DSSTAR_AUDIT=ON (compile
// definition SSTAR_AUDIT_ENABLED), the numeric kernels report every
// actual (task, block, access-kind) event through SSTAR_AUDIT_RECORD
// below, each attributed to the task the calling thread runs: the
// trace's thread task tag (trace::TraceCollector::current_task), which
// every executor sets around a task body whether or not a trace is
// being collected, so concurrent workers attribute events correctly.
// An offline checker (analysis/audit.hpp: check_recorded_accesses) then
// cross-validates the recorded events against the statically declared
// sets — catching both under-declared access sets (a kernel touched a
// block its task never declared) and missing DAG edges (two recorded
// conflicting accesses whose tasks no dependence path orders).
//
// In a default build the macro expands to ((void)0): no code, no
// arguments evaluated, zero overhead. With auditing compiled in but no
// log installed, the cost is one relaxed atomic load per event site.
#pragma once

#include <mutex>
#include <vector>

#include "analysis/access_types.hpp"

namespace sstar::analysis {

struct AccessEvent {
  int task = -1;  ///< executor task id current at record time
  BlockCoord block;
  Access access = Access::kRead;
};

/// Collects access events from all worker threads. At most one log is
/// active process-wide; events recorded while no log is installed (or
/// outside any tagged task, e.g. a plain sequential factorize()) are
/// dropped.
class AccessLog {
 public:
  AccessLog() = default;
  ~AccessLog();
  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// Make this log the active event sink. Throws CheckError if another
  /// log is already installed.
  void install();
  /// Stop collecting (no-op if this log is not the active one).
  void uninstall();

  /// Move out everything recorded so far.
  std::vector<AccessEvent> take_events();

  /// The active log, or nullptr.
  static AccessLog* active();

  /// Record one access against the calling thread's current task (the
  /// trace's task tag). No-op without an active log or a current task.
  static void record(int i, int j, Access access);

 private:
  std::mutex mu_;
  std::vector<AccessEvent> events_;
};

}  // namespace sstar::analysis

#ifdef SSTAR_AUDIT_ENABLED
#define SSTAR_AUDIT_RECORD(i, j, acc) \
  ::sstar::analysis::AccessLog::record((i), (j), (acc))
#else
#define SSTAR_AUDIT_RECORD(i, j, acc) ((void)0)
#endif
