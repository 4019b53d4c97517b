// Trace export: Chrome trace_event JSON and a text Gantt summary.
//
// chrome_trace_json() emits the "JSON array format" of the Chrome
// trace_event specification — one complete ("ph":"X") event per kernel
// span and recv wait, one instant ("ph":"i") event per send, plus
// thread_name metadata naming each lane — loadable directly in
// chrome://tracing or https://ui.perfetto.dev. Lanes map to tids of a
// single pid; timestamps are microseconds since the trace epoch.
//
// parse_chrome_trace() is the inverse (restricted to the fields this
// module writes): it reads the document with util::parse_json, checks
// every field's type and range, and rebuilds the Trace, so tests can
// assert the export round-trips losslessly, external tools will see
// well-formed JSON, and sstar_trace can read a saved run back.
#pragma once

#include <string>

#include "trace/trace.hpp"

namespace sstar::trace {

/// Render the trace in Chrome trace_event JSON array format.
/// `lane_name` prefixes lane ids in the metadata ("worker" or "rank").
std::string chrome_trace_json(const Trace& trace,
                              const std::string& lane_name = "lane");

/// Parse a chrome_trace_json() document back into a Trace (metadata
/// events are consumed, not represented), its events stably sorted by
/// event_before as Trace::events documents. Throws CheckError with a
/// byte offset on malformed JSON, and naming the event index on a
/// missing or invalid field: ids must be integers (a lane below the
/// document's entry count, task/k/j/peer >= -1, flops/bytes >= 0), ts
/// finite, dur finite and >= 0.
Trace parse_chrome_trace(const std::string& json);

/// ASCII Gantt chart of the measured spans, one row per lane — the
/// measured counterpart of sim::SimulationResult::gantt().
std::string gantt_text(const Trace& trace, int width = 72);

}  // namespace sstar::trace
