// Execution tracing — the observability layer over all three execution
// paths (sequential factorize(), the shared-memory work-stealing
// executor, the rank-per-thread message-passing runtime).
//
// The paper's entire evaluation (Tables 5-7, Figs. 16-18) is built on
// per-phase time breakdowns: computation, communication, idle. The
// simulator (sim/event_sim) PREDICTS those; this layer MEASURES them.
// Kernels emit one span per Factor/ScaleSwap/Update invocation (block
// coordinates + the exact flops the thread performed inside), the
// in-process transport emits one event per send and one wait span per
// blocking recv (bytes, matched source, tag), and every event lands in
// a lock-free per-thread buffer merged after the run. Consumers:
// Chrome trace_event export + text Gantt (trace/export), per-phase
// breakdown + realized critical path (trace/analyze), and the
// predicted-vs-measured validator against the discrete-event simulator
// (trace/validate).
//
// Overhead discipline: tracing is always compiled in but costs ONE
// relaxed atomic load per potential event site when no collector is
// installed — no time queries, no allocation, no branch beyond the null
// check. With a collector installed, each event is a steady_clock read
// plus a push_back into a buffer owned exclusively by the recording
// thread (no locks, no sharing until take()). Tracing never touches
// numeric state, so factors are bitwise-identical with tracing on or
// off — tests/test_trace.cpp and the differential suites enforce that.
//
// Threading contract: install() before the run, uninstall() + take()
// after every recording thread has been JOINED. Recording threads may
// register buffers concurrently; take() is only safe once they are
// done.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sstar::trace {

enum class EventKind : std::uint8_t {
  kFactor,    ///< Factor(k) kernel span (j == k)
  kScale,     ///< ScaleSwap(k, j) kernel span
  kUpdate,    ///< Update(k, j) kernel span
  kSend,        ///< transport send: instant event, bytes = payload size
  kRecvWait,    ///< transport recv: span from call to match, bytes matched
  kPanelAlloc,  ///< DistBlockStore cached a remote panel: instant, bytes
  kPanelFree,   ///< DistBlockStore released a cached panel: instant, bytes
  kFSolve,      ///< forward-solve task FS(k) span (serving layer, j == -1)
  kBSolve,      ///< backward-solve task BS(k) span (serving layer, j == -1)
};

/// True for the kernel span kinds (factor/scale/update and the solve
/// stages FS/BS).
bool is_kernel(EventKind k);

/// True for the panel-cache instant kinds (alloc/free).
bool is_panel_cache(EventKind k);

/// "F", "S", "U", "send", "recv", "palloc", "pfree", "FS", "BS".
const char* kind_name(EventKind k);

struct TraceEvent {
  EventKind kind = EventKind::kFactor;
  std::int32_t lane = 0;   ///< worker id (shared-memory) or rank (MP)
  std::int32_t task = -1;  ///< executor/program task id; -1 = untagged
  std::int32_t k = -1;     ///< source supernode (kernels) / tag (comm)
  std::int32_t j = -1;     ///< target column block (kernels)
  std::int32_t peer = -1;  ///< comm: destination (send) / source (recv)
  std::int64_t flops = 0;  ///< kernels: flops performed inside the span
  std::int64_t bytes = 0;  ///< comm: payload bytes
  double t0 = 0.0;         ///< span begin, seconds since trace epoch
  double t1 = 0.0;         ///< span end (== t0 for instant events)
};

/// Display label, e.g. "F(3)", "U(3,7)", "send(5)", "recv(5)".
std::string event_label(const TraceEvent& e);

/// The order of a merged trace: by (t0, t1, lane).
bool event_before(const TraceEvent& a, const TraceEvent& b);

/// A merged, time-sorted trace.
struct Trace {
  /// Stably sorted by event_before (a parsed trace too).
  std::vector<TraceEvent> events;
  int num_lanes = 0;  ///< max lane + 1 (0 when empty)

  /// Events of one lane, in time order.
  std::vector<const TraceEvent*> lane_events(int lane) const;
};

/// Collects events from all threads of one run. At most one collector
/// is active process-wide.
class TraceCollector {
 public:
  TraceCollector();  // defined out of line: Buffer is incomplete here
  ~TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Become the process-wide sink; the trace epoch (t = 0) is now.
  /// Throws CheckError if another collector is already installed.
  void install();
  /// Stop collecting (no-op if not the active collector).
  void uninstall();

  /// Merge every thread's buffer into one time-sorted Trace. Call only
  /// after uninstall() with all recording threads joined; the collector
  /// is empty afterwards and may be reused.
  Trace take();

  /// The active collector, or nullptr (one relaxed atomic load — this
  /// is the only cost tracing adds when off).
  static TraceCollector* active();

  /// Seconds since the active collector's epoch (0 if none active).
  static double now();

  /// Tag the calling thread with a lane id (worker index or rank).
  /// Returns the previous tag so scopes can nest; default lane is 0.
  static int exchange_lane(int lane);

  /// Tag the calling thread as executing task t (-1 = none). Returns
  /// the previous tag.
  static int exchange_task(int task);

  /// Append one event on behalf of the calling thread. `e.lane` and
  /// `e.task` are overwritten with the thread's current tags unless
  /// `explicit_lane` is set. No-op when no collector is active.
  static void record(TraceEvent e, bool explicit_lane = false);

  /// One thread's private event store (public only so the thread-local
  /// registration slot can name it; not part of the API).
  struct Buffer;

 private:
  Buffer* claim_buffer();

  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  double epoch_ = 0.0;  // steady_clock seconds at install
};

/// RAII lane tag: the enclosed scope records on lane `lane`.
class ScopedLane {
 public:
  explicit ScopedLane(int lane) : prev_(TraceCollector::exchange_lane(lane)) {}
  ~ScopedLane() { TraceCollector::exchange_lane(prev_); }
  ScopedLane(const ScopedLane&) = delete;
  ScopedLane& operator=(const ScopedLane&) = delete;

 private:
  int prev_;
};

/// RAII task tag: the enclosed scope records against task t.
class ScopedTraceTask {
 public:
  explicit ScopedTraceTask(int t) : prev_(TraceCollector::exchange_task(t)) {}
  ~ScopedTraceTask() { TraceCollector::exchange_task(prev_); }
  ScopedTraceTask(const ScopedTraceTask&) = delete;
  ScopedTraceTask& operator=(const ScopedTraceTask&) = delete;

 private:
  int prev_;
};

/// RAII kernel span: captures the begin time and the calling thread's
/// flop counter at construction, emits one event at destruction with
/// the flop delta. When no collector is active the constructor is a
/// single relaxed load and the destructor a null check.
class KernelSpan {
 public:
  KernelSpan(EventKind kind, int k, int j);
  ~KernelSpan();
  KernelSpan(const KernelSpan&) = delete;
  KernelSpan& operator=(const KernelSpan&) = delete;

 private:
  TraceCollector* collector_;  // active() at construction
  EventKind kind_;
  int k_, j_;
  double t0_ = 0.0;
  std::uint64_t flops0_ = 0;
};

}  // namespace sstar::trace
