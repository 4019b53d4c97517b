#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>

#include "blas/flops.hpp"
#include "util/check.hpp"

namespace sstar::trace {

bool is_kernel(EventKind k) {
  return k == EventKind::kFactor || k == EventKind::kScale ||
         k == EventKind::kUpdate || k == EventKind::kFSolve ||
         k == EventKind::kBSolve;
}

bool is_panel_cache(EventKind k) {
  return k == EventKind::kPanelAlloc || k == EventKind::kPanelFree;
}

const char* kind_name(EventKind k) {
  switch (k) {
    case EventKind::kFactor: return "F";
    case EventKind::kScale: return "S";
    case EventKind::kUpdate: return "U";
    case EventKind::kSend: return "send";
    case EventKind::kRecvWait: return "recv";
    case EventKind::kPanelAlloc: return "palloc";
    case EventKind::kPanelFree: return "pfree";
    case EventKind::kFSolve: return "FS";
    case EventKind::kBSolve: return "BS";
  }
  return "?";
}

std::string event_label(const TraceEvent& e) {
  std::ostringstream os;
  os << kind_name(e.kind) << "(";
  if (e.kind == EventKind::kFactor || e.kind == EventKind::kFSolve ||
      e.kind == EventKind::kBSolve) {
    os << e.k;  // single-supernode spans print the block alone
  } else if (is_kernel(e.kind)) {
    os << e.k << "," << e.j;
  } else {
    os << e.k;  // comm events: k carries the panel tag
  }
  os << ")";
  return os.str();
}

bool event_before(const TraceEvent& a, const TraceEvent& b) {
  if (a.t0 != b.t0) return a.t0 < b.t0;
  if (a.t1 != b.t1) return a.t1 < b.t1;
  return a.lane < b.lane;
}

std::vector<const TraceEvent*> Trace::lane_events(int lane) const {
  std::vector<const TraceEvent*> out;
  for (const TraceEvent& e : events)
    if (e.lane == lane) out.push_back(&e);
  return out;
}

// One thread's private event store. The owning thread appends without
// synchronization; the collector only reads it in take(), after the
// thread is done (joined or past uninstall()).
struct TraceCollector::Buffer {
  std::vector<TraceEvent> events;
};

namespace {

std::atomic<TraceCollector*> g_active{nullptr};
// Bumped on every install so a thread-local buffer claim from a
// previous collector's run (or a previous install of the SAME
// collector) is never reused by mistake.
std::atomic<std::uint64_t> g_install_id{0};

struct ThreadTags {
  int lane = 0;
  int task = -1;
  std::uint64_t claim_id = 0;          // install id the buffer belongs to
  TraceCollector::Buffer* buf = nullptr;
};

ThreadTags& tags() {
  thread_local ThreadTags t;
  return t;
}

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceCollector::TraceCollector() = default;

TraceCollector::~TraceCollector() { uninstall(); }

void TraceCollector::install() {
  TraceCollector* expected = nullptr;
  SSTAR_CHECK_MSG(
      g_active.compare_exchange_strong(expected, this),
      "a TraceCollector is already installed");
  epoch_ = steady_seconds();
  g_install_id.fetch_add(1, std::memory_order_relaxed);
}

void TraceCollector::uninstall() {
  TraceCollector* expected = this;
  g_active.compare_exchange_strong(expected, nullptr);
}

TraceCollector* TraceCollector::active() {
  return g_active.load(std::memory_order_relaxed);
}

double TraceCollector::now() {
  const TraceCollector* c = active();
  return c ? steady_seconds() - c->epoch_ : 0.0;
}

int TraceCollector::exchange_lane(int lane) {
  ThreadTags& t = tags();
  const int prev = t.lane;
  t.lane = lane;
  return prev;
}

int TraceCollector::exchange_task(int task) {
  ThreadTags& t = tags();
  const int prev = t.task;
  t.task = task;
  return prev;
}

TraceCollector::Buffer* TraceCollector::claim_buffer() {
  const std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  return buffers_.back().get();
}

void TraceCollector::record(TraceEvent e, bool explicit_lane) {
  TraceCollector* c = active();
  if (c == nullptr) return;
  ThreadTags& t = tags();
  const std::uint64_t id = g_install_id.load(std::memory_order_relaxed);
  if (t.claim_id != id || t.buf == nullptr) {
    t.buf = c->claim_buffer();
    t.claim_id = id;
  }
  if (!explicit_lane) e.lane = t.lane;
  if (e.task < 0) e.task = t.task;
  t.buf->events.push_back(e);
}

Trace TraceCollector::take() {
  SSTAR_CHECK_MSG(active() != this,
                  "TraceCollector::take() before uninstall()");
  Trace out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<Buffer>& b : buffers_) {
      out.events.insert(out.events.end(), b->events.begin(),
                        b->events.end());
    }
    buffers_.clear();
  }
  std::stable_sort(out.events.begin(), out.events.end(), event_before);
  for (const TraceEvent& e : out.events)
    out.num_lanes = std::max(out.num_lanes, e.lane + 1);
  return out;
}

KernelSpan::KernelSpan(EventKind kind, int k, int j)
    : collector_(TraceCollector::active()), kind_(kind), k_(k), j_(j) {
  if (collector_ == nullptr) return;
  t0_ = TraceCollector::now();
  flops0_ = blas::flop_counter().total();
}

KernelSpan::~KernelSpan() {
  if (collector_ == nullptr) return;
  TraceEvent e;
  e.kind = kind_;
  e.k = k_;
  e.j = j_;
  e.t0 = t0_;
  e.t1 = TraceCollector::now();
  e.flops =
      static_cast<std::int64_t>(blas::flop_counter().total() - flops0_);
  TraceCollector::record(e);
}

}  // namespace sstar::trace
