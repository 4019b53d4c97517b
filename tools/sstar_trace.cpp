// sstar_trace — analyze a saved trace of a message-passing run.
//
//   ./sstar_mp --grid=14 --ranks=4 --trace=trace.json    record one
//   ./sstar_trace --load=trace.json                      phase breakdown
//   ./sstar_trace --load=trace.json --gantt --critical-path
//
// sstar_mp runs and checks a traced execution (phase breakdown, span
// flops and send events against independent counts, predicted-vs-
// measured validation) and writes it as Chrome trace_event JSON with
// --trace=PATH. This tool reads such a file back through
// trace/export's parser, which rejects malformed fields with the event
// index, and prints the measured per-lane phase breakdown (compute /
// comm wait / idle — the measured version of the paper's Tables 5-7
// split), plus an ASCII Gantt (--gantt) and the realized critical path
// (--critical-path).
//
// Flags: --load=PATH (required) --gantt --critical-path
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

using namespace sstar;

int main(int argc, char** argv) {
  std::string load_path;
  bool gantt = false;
  bool cpath = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--load=", 0) == 0) {
      load_path = arg.substr(7);
    } else if (arg == "--gantt") {
      gantt = true;
    } else if (arg == "--critical-path") {
      cpath = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (load_path.empty()) {
    std::fprintf(stderr,
                 "usage: sstar_trace --load=PATH [--gantt] "
                 "[--critical-path]\n(record a trace with sstar_mp "
                 "--trace=PATH)\n");
    return 2;
  }

  try {
    std::ifstream in(load_path);
    if (!in.is_open()) throw CheckError("cannot open " + load_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const trace::Trace tr = trace::parse_chrome_trace(buf.str());
    std::printf("loaded %zu event(s) on %d lane(s) from %s\n\n",
                tr.events.size(), tr.num_lanes, load_path.c_str());
    std::printf("%s", trace::breakdown_table(trace::phase_breakdown(tr))
                          .c_str());
    if (gantt) std::printf("\n%s", trace::gantt_text(tr).c_str());
    if (cpath)
      std::printf("\n%s", trace::critical_path_text(
                              trace::realized_critical_path(tr))
                              .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
