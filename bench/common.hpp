// Shared infrastructure for the table/figure benchmark harnesses.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation (see DESIGN.md's per-experiment index) and prints rows in
// the paper's shape, with the paper's own numbers alongside where the
// provided text preserves them legibly.
//
// Flags (all optional; numbers and lists are read by cli/flags.hpp, so
// a value that does not parse exits 2 naming the flag):
//   --full            run replicas at full published sizes
//   --scale=<f>       override the scale of every matrix
//   --seed=<n>        generator seed (default 1)
//   --max-block=<n>   supernode width cap (default 25, the paper's BSIZE)
//   --amalg=<n>       amalgamation factor r (default 4)
//   --matrices=a,b,c  restrict to the named suite matrices
//   --threads=1,2,4   thread counts for real-execution benches
//   --json=<path>     results file of the benches that write one
//                     (default results/bench_<name>.json; see
//                     write_results)
//   --trace=<path>    Chrome trace_event JSON of each executor run
//                     (real-execution benches; one file per run, the
//                     run tag inserted before the extension)
//   --machine=<spec>  machine model preset name or JSON spec file
//                     (sim/machine_spec; benches that price against a
//                     machine — default t3e)
//   --transport=<t>   inproc|proc — how MP benches realize ranks
//                     (threads vs OS processes; see exec/lu_mp)
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "baseline/gplu.hpp"
#include "matrix/suite.hpp"
#include "solve/solver.hpp"
#include "trace/trace.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace sstar::bench {

struct Options {
  bool full = false;
  std::optional<double> scale_override;
  std::uint64_t seed = 1;
  int max_block = 25;
  int amalg = 4;
  std::vector<std::string> only;
  std::vector<int> threads;  ///< real-execution thread counts (empty = bench default)
  std::string json_path;     ///< where to write JSON results (empty = bench default)
  std::string trace_path;    ///< Chrome trace base path (empty = no tracing)
  std::string machine;  ///< preset/JSON spec ("" = the bench's default)
  std::string transport = "inproc"; ///< "inproc" | "proc" (MP benches)

  static Options parse(int argc, char** argv);

  /// Default scales keep single-core runs tractable: small matrices run
  /// at full published size, the paper's "large matrices" group at 0.3.
  double scale_for(const gen::SuiteEntry& e) const;

  /// Filtered + ordered list of suite names to run.
  std::vector<std::string> select(const std::vector<std::string>& names) const;

  SolverOptions solver_options() const;
};

/// One matrix, fully prepared for experiments.
struct Prepared {
  std::string name;
  int order = 0;
  SparseMatrix a;
  SolverSetup setup;
  /// SuperLU-equivalent op count (the paper's MFLOPS denominator) and
  /// factor entries; present when `need_gplu` was set.
  std::int64_t superlu_ops = 0;
  std::int64_t superlu_entries = 0;
};

/// Generate the replica and run the symbolic pipeline (+ optionally the
/// GPLU baseline for op counts).
Prepared prepare_matrix(const std::string& name, const Options& opt,
                        bool need_gplu);

/// "name (n=1234)" row label.
std::string matrix_label(const Prepared& p);

/// Format "x.xx" or "-" for a missing paper value (<= 0).
std::string paper_cell(double v, int precision = 1);

/// Print the standard bench preamble (matrix scales, options).
void print_preamble(const std::string& what, const Options& opt);

/// Per-run trace file name: insert ".<tag>" before `base`'s extension
/// ("out.json" + "sherman5.t4" -> "out.sherman5.t4.json").
std::string trace_file_for(const std::string& base, const std::string& tag);

/// Write the trace as Chrome trace_event JSON to
/// trace_file_for(base, tag) and print where it went; a file that
/// cannot be written is an error naming it (exit 1).
void write_trace(const std::string& base, const std::string& tag,
                 const trace::Trace& tr, const std::string& lane_name);

/// Write a bench's results document to `json_path`, or to
/// results/bench_<bench>.json when that is empty, creating its
/// directory, and print "JSON written to PATH". A file that cannot be
/// written is an error naming it (exit 1).
void write_results(const std::string& bench, const std::string& json_path,
                   const util::JsonWriter& doc);

}  // namespace sstar::bench
