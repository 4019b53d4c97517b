#include "trace/analyze.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "util/check.hpp"

namespace sstar::trace {

double PhaseBreakdown::total_compute() const {
  double s = 0.0;
  for (const Lane& l : lanes) s += l.compute;
  return s;
}

double PhaseBreakdown::total_comm_wait() const {
  double s = 0.0;
  for (const Lane& l : lanes) s += l.comm_wait;
  return s;
}

double PhaseBreakdown::busy_fraction() const {
  if (lanes.empty() || makespan <= 0.0) return 0.0;
  return total_compute() / (static_cast<double>(lanes.size()) * makespan);
}

PhaseBreakdown phase_breakdown(const Trace& trace) {
  PhaseBreakdown b;
  b.lanes.resize(static_cast<std::size_t>(trace.num_lanes));
  std::vector<std::set<int>> lane_tasks(
      static_cast<std::size_t>(trace.num_lanes));
  // Running remote-panel cache size per lane; the trace is time-sorted,
  // so one pass reproduces each lane's alloc/free sequence.
  std::vector<std::int64_t> cache_bytes(
      static_cast<std::size_t>(trace.num_lanes), 0);
  for (const TraceEvent& e : trace.events) {
    b.makespan = std::max(b.makespan, e.t1);
    const auto ki = static_cast<std::size_t>(e.kind);
    b.kind_count[ki] += 1;
    b.kind_seconds[ki] += e.t1 - e.t0;
    PhaseBreakdown::Lane& lane = b.lanes[static_cast<std::size_t>(e.lane)];
    if (is_kernel(e.kind)) {
      lane.compute += e.t1 - e.t0;
      lane.flops += e.flops;
      b.total_flops += e.flops;
      if (e.task >= 0) lane_tasks[static_cast<std::size_t>(e.lane)].insert(e.task);
    } else if (e.kind == EventKind::kSend) {
      lane.sent_bytes += e.bytes;
      b.total_sent_bytes += e.bytes;
      b.sends += 1;
    } else if (is_panel_cache(e.kind)) {
      std::int64_t& cur = cache_bytes[static_cast<std::size_t>(e.lane)];
      cur += e.kind == EventKind::kPanelAlloc ? e.bytes : -e.bytes;
      lane.panel_cache_peak_bytes =
          std::max(lane.panel_cache_peak_bytes, cur);
    } else {
      lane.comm_wait += e.t1 - e.t0;
      lane.recv_bytes += e.bytes;
      b.total_recv_bytes += e.bytes;
      b.recvs += 1;
    }
  }
  for (std::size_t l = 0; l < b.lanes.size(); ++l) {
    b.lanes[l].tasks = static_cast<int>(lane_tasks[l].size());
    b.lanes[l].idle =
        std::max(0.0, b.makespan - b.lanes[l].compute - b.lanes[l].comm_wait);
  }
  return b;
}

namespace {

std::string secs(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%10.6f", s);
  return buf;
}

std::string pct(double num, double den) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%5.1f%%", den > 0.0 ? 100.0 * num / den : 0.0);
  return buf;
}

}  // namespace

std::string breakdown_table(const PhaseBreakdown& b) {
  std::ostringstream os;
  os << "lane     compute        comm        idle   busy    flops"
        "      sent B    recv B  tasks\n";
  for (std::size_t l = 0; l < b.lanes.size(); ++l) {
    const PhaseBreakdown::Lane& lane = b.lanes[l];
    char head[32];
    std::snprintf(head, sizeof head, "%-4zu", l);
    os << head << secs(lane.compute) << "  " << secs(lane.comm_wait) << "  "
       << secs(lane.idle) << "  " << pct(lane.compute, b.makespan) << "  "
       << lane.flops << "  " << lane.sent_bytes << "  " << lane.recv_bytes
       << "  " << lane.tasks << "\n";
  }
  os << "makespan " << secs(b.makespan) << " s over "
     << b.lanes.size() << " lane(s); busy fraction "
     << pct(b.total_compute(), b.makespan * static_cast<double>(
                                   std::max<std::size_t>(1, b.lanes.size())))
     << "\n";
  os << "spans: F=" << b.kind_count[0] << " S=" << b.kind_count[1]
     << " U=" << b.kind_count[2] << " send=" << b.kind_count[3]
     << " recv=" << b.kind_count[4] << " palloc=" << b.kind_count[5]
     << " pfree=" << b.kind_count[6] << " FS=" << b.kind_count[7]
     << " BS=" << b.kind_count[8] << "; total flops " << b.total_flops
     << "; bytes sent " << b.total_sent_bytes << " / received "
     << b.total_recv_bytes << "\n";
  return os.str();
}

CriticalPath realized_critical_path(const Trace& trace) {
  CriticalPath cp;
  if (trace.events.empty()) return cp;

  const std::size_t n = trace.events.size();
  // Per-lane event indices in time order (trace.events is time-sorted,
  // so a linear scan preserves order).
  std::vector<std::vector<std::size_t>> by_lane(
      static_cast<std::size_t>(trace.num_lanes));
  for (std::size_t i = 0; i < n; ++i)
    by_lane[static_cast<std::size_t>(trace.events[i].lane)].push_back(i);

  // Match each recv-wait to its send: the transport is FIFO per
  // (src, dst, tag), so the r-th recv of a triple pairs with the r-th
  // send of that triple (sends appear in trace time order, which on one
  // source lane is the posting order).
  std::map<std::tuple<int, int, int>, std::vector<std::size_t>> sends;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = trace.events[i];
    if (e.kind == EventKind::kSend)
      sends[{e.lane, e.peer, e.k}].push_back(i);
  }
  std::vector<std::ptrdiff_t> matched_send(n, -1);
  std::map<std::tuple<int, int, int>, std::size_t> next;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = trace.events[i];
    if (e.kind != EventKind::kRecvWait) continue;
    const std::tuple<int, int, int> key{e.peer, e.lane, e.k};
    const auto it = sends.find(key);
    if (it == sends.end()) continue;  // partial trace: sender untraced
    std::size_t& cursor = next[key];
    if (cursor < it->second.size()) matched_send[i] = static_cast<std::ptrdiff_t>(it->second[cursor++]);
  }

  // Walk back from the last-finishing event, at each step taking the
  // latest-finishing happens-before predecessor not already on the path
  // (a trace whose sends and recvs match in a cycle would loop forever).
  std::size_t cur = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (trace.events[i].t1 > trace.events[cur].t1) cur = i;
  cp.makespan = trace.events[cur].t1;

  std::vector<std::size_t> rev;
  // Position of each event within its lane list, for O(1) predecessor.
  std::vector<std::size_t> lane_pos(n, 0);
  for (const auto& lane : by_lane)
    for (std::size_t p = 0; p < lane.size(); ++p) lane_pos[lane[p]] = p;

  std::vector<char> on_path(n, 0);
  while (true) {
    rev.push_back(cur);
    on_path[cur] = 1;
    const TraceEvent& e = trace.events[cur];
    std::ptrdiff_t best = -1;
    double best_t1 = -1.0;
    if (lane_pos[cur] > 0) {
      const std::size_t prev =
          by_lane[static_cast<std::size_t>(e.lane)][lane_pos[cur] - 1];
      if (on_path[prev] == 0) {
        best = static_cast<std::ptrdiff_t>(prev);
        best_t1 = trace.events[prev].t1;
      }
    }
    if (e.kind == EventKind::kRecvWait && matched_send[cur] >= 0) {
      const std::size_t s = static_cast<std::size_t>(matched_send[cur]);
      if (on_path[s] == 0 && trace.events[s].t1 > best_t1) {
        best = static_cast<std::ptrdiff_t>(s);
        best_t1 = trace.events[s].t1;
      }
    }
    if (best < 0) break;
    cur = static_cast<std::size_t>(best);
  }

  cp.events.reserve(rev.size());
  for (auto it = rev.rbegin(); it != rev.rend(); ++it)
    cp.events.push_back(trace.events[*it]);
  for (const TraceEvent& e : cp.events) {
    if (is_kernel(e.kind))
      cp.compute_seconds += e.t1 - e.t0;
    else if (e.kind == EventKind::kRecvWait)
      cp.comm_seconds += e.t1 - e.t0;
  }
  cp.gap_seconds =
      std::max(0.0, cp.makespan - cp.compute_seconds - cp.comm_seconds);
  return cp;
}

std::string critical_path_text(const CriticalPath& cp) {
  std::ostringstream os;
  os << "realized critical path: " << cp.events.size() << " event(s), makespan "
     << cp.makespan << " s (compute " << cp.compute_seconds << ", comm "
     << cp.comm_seconds << ", gap " << cp.gap_seconds << ")\n";
  for (const TraceEvent& e : cp.events) {
    os << "  L" << e.lane << "  " << event_label(e) << "  [" << secs(e.t0)
       << ", " << secs(e.t1) << "]";
    if (e.task >= 0) os << "  task " << e.task;
    os << "\n";
  }
  return os.str();
}

}  // namespace sstar::trace
