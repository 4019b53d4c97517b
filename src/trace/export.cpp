#include "trace/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace sstar::trace {

namespace {

// Timestamps are written in microseconds with three decimals
// (nanosecond resolution) — enough that distinct steady_clock readings
// stay distinct and the round-trip comparison in tests is exact at the
// printed precision.
std::string us(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
  return buf;
}

const char* kind_tag(EventKind k) {
  switch (k) {
    case EventKind::kFactor: return "factor";
    case EventKind::kScale: return "scale";
    case EventKind::kUpdate: return "update";
    case EventKind::kSend: return "send";
    case EventKind::kRecvWait: return "recv";
    case EventKind::kPanelAlloc: return "panel_alloc";
    case EventKind::kPanelFree: return "panel_free";
    case EventKind::kFSolve: return "fsolve";
    case EventKind::kBSolve: return "bsolve";
  }
  return "?";
}

// Instant (zero-duration) event kinds: exported with ph:"i".
bool is_instant(EventKind k) {
  return k == EventKind::kSend || is_panel_cache(k);
}

EventKind kind_from_tag(const std::string& s) {
  if (s == "factor") return EventKind::kFactor;
  if (s == "scale") return EventKind::kScale;
  if (s == "update") return EventKind::kUpdate;
  if (s == "send") return EventKind::kSend;
  if (s == "recv") return EventKind::kRecvWait;
  if (s == "panel_alloc") return EventKind::kPanelAlloc;
  if (s == "panel_free") return EventKind::kPanelFree;
  if (s == "fsolve") return EventKind::kFSolve;
  if (s == "bsolve") return EventKind::kBSolve;
  throw CheckError("unknown event kind tag '" + s + "'");
}

constexpr double kMaxId = std::numeric_limits<std::int32_t>::max();
constexpr double kMaxCount = 9007199254740992.0;  // 2^53: exact in a double

// Number member `key` of `obj`: finite, within [lo, hi], and a whole
// number when `integral`.
double number(const util::JsonValue& obj, const char* key, double lo,
              double hi, bool integral) {
  const double v = obj.at(key).as_number();
  SSTAR_CHECK_MSG(std::isfinite(v) && v >= lo && v <= hi &&
                      (!integral || v == std::floor(v)),
                  "'" << key << "' is " << std::setprecision(17) << v
                      << "; want a finite "
                      << (integral ? "integer" : "number") << " in [" << lo
                      << ", " << hi << "]");
  return v;
}

// Reads one trace_event object into `e`; false for a metadata event.
// Lane ids are below `entries`, the document's array length.
bool read_event(const util::JsonValue& ev, std::size_t entries,
                TraceEvent* e) {
  SSTAR_CHECK_MSG(ev.is_object(), "not an object");
  const std::string& ph = ev.at("ph").as_string();
  if (ph == "M") return false;  // metadata (lane names)
  SSTAR_CHECK_MSG(ph == "X" || ph == "i", "unexpected phase '" << ph << "'");
  const util::JsonValue& args = ev.at("args");
  e->kind = kind_from_tag(args.at("kind").as_string());
  e->lane = static_cast<std::int32_t>(
      number(ev, "tid", 0, static_cast<double>(entries) - 1, true));
  e->task = static_cast<std::int32_t>(number(args, "task", -1, kMaxId, true));
  e->k = static_cast<std::int32_t>(number(args, "k", -1, kMaxId, true));
  e->j = static_cast<std::int32_t>(number(args, "j", -1, kMaxId, true));
  e->peer = static_cast<std::int32_t>(number(args, "peer", -1, kMaxId, true));
  e->flops =
      static_cast<std::int64_t>(number(args, "flops", 0, kMaxCount, true));
  e->bytes =
      static_cast<std::int64_t>(number(args, "bytes", 0, kMaxCount, true));
  const double inf = std::numeric_limits<double>::infinity();
  e->t0 = number(ev, "ts", -inf, inf, false) / 1e6;
  e->t1 = ev.has("dur") ? e->t0 + number(ev, "dur", 0, inf, false) / 1e6
                        : e->t0;
  return true;
}

}  // namespace

std::string chrome_trace_json(const Trace& trace,
                              const std::string& lane_name) {
  std::ostringstream os;
  os << "[\n";
  // Lane naming metadata first: one process, one named thread per lane.
  for (int lane = 0; lane < trace.num_lanes; ++lane) {
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << lane
       << ",\"args\":{\"name\":\"" << lane_name << " " << lane << "\"}},\n";
  }
  bool first = true;
  for (const TraceEvent& e : trace.events) {
    if (!first) os << ",\n";
    first = false;
    const char* cat = is_kernel(e.kind)        ? "compute"
                      : is_panel_cache(e.kind) ? "memory"
                                               : "comm";
    os << "{\"name\":\"" << event_label(e) << "\",\"cat\":\"" << cat
       << "\",\"ph\":\"" << (is_instant(e.kind) ? "i" : "X") << "\",\"ts\":"
       << us(e.t0);
    if (!is_instant(e.kind)) os << ",\"dur\":" << us(e.t1 - e.t0);
    if (is_instant(e.kind)) os << ",\"s\":\"t\"";
    os << ",\"pid\":0,\"tid\":" << e.lane << ",\"args\":{\"kind\":\""
       << kind_tag(e.kind) << "\",\"task\":" << e.task << ",\"k\":" << e.k
       << ",\"j\":" << e.j << ",\"peer\":" << e.peer
       << ",\"flops\":" << e.flops << ",\"bytes\":" << e.bytes << "}}";
  }
  os << "\n]\n";
  return os.str();
}

Trace parse_chrome_trace(const std::string& json) {
  const util::JsonValue doc = util::parse_json(json);
  SSTAR_CHECK_MSG(doc.is_array(), "chrome trace: top level must be an array");
  Trace out;
  for (std::size_t i = 0; i < doc.items.size(); ++i) {
    TraceEvent e;
    try {
      if (!read_event(doc.items[i], doc.items.size(), &e)) continue;
    } catch (const CheckError& err) {
      throw CheckError("chrome trace: event " + std::to_string(i) + ": " +
                       err.what());
    }
    out.events.push_back(e);
    out.num_lanes = std::max(out.num_lanes, e.lane + 1);
  }
  // The collector's order (Trace::events), whatever the document's: a
  // trace the collector wrote reads back unchanged.
  std::stable_sort(out.events.begin(), out.events.end(), event_before);
  return out;
}

std::string gantt_text(const Trace& trace, int width) {
  std::ostringstream os;
  double tmax = 0.0;
  for (const TraceEvent& e : trace.events) tmax = std::max(tmax, e.t1);
  const double span = tmax > 0.0 ? tmax : 1.0;
  for (int lane = 0; lane < trace.num_lanes; ++lane) {
    os << "L" << lane << " |";
    std::string line(static_cast<std::size_t>(width), '.');
    for (const TraceEvent& e : trace.events) {
      if (e.lane != lane) continue;
      // Comm waits render as '~', compute spans as '#' under the label.
      const char fill = is_kernel(e.kind) ? '#' : '~';
      int s = static_cast<int>(e.t0 / span * width);
      int f = static_cast<int>(e.t1 / span * width);
      s = std::clamp(s, 0, width - 1);
      f = std::clamp(f, s + 1, width);
      for (int x = s; x < f; ++x) line[static_cast<std::size_t>(x)] = fill;
      const std::string label = event_label(e);
      for (std::size_t c = 0;
           c < label.size() && s + static_cast<int>(c) < f; ++c)
        line[static_cast<std::size_t>(s) + c] = label[c];
    }
    os << line << "|\n";
  }
  os << "time 0 .. " << span << " s   (#/label = compute, ~ = comm wait)\n";
  return os.str();
}

}  // namespace sstar::trace
