// Topology-aware vs round-robin rank placement on a hierarchical
// machine (DESIGN.md §16).
//
// The hierarchical machine model prices a message by the link its
// (src, dst) PE pair actually crosses — intra-socket, intra-node, or
// network, costs apart by orders of magnitude — so WHERE the 2D grid's
// ranks land now matters. This bench quantifies it: for each suite
// matrix, the same 2D async SPMD program is simulated twice on the same
// hierarchical machine, once with the column-team-major
// TOPOLOGY-AWARE placement (the pr ranks of a grid column occupy
// consecutive PEs, keeping the Factor -> Update fan-out on the fastest
// links the shape allows) and once with the naive ROUND-ROBIN placement
// (rank r -> node r mod nodes, scattering every column team over the
// network). The figure of merit is the REALIZED critical path of the
// simulated schedule (sim/event_sim -> analysis/sim_trace ->
// trace/analyze): deterministic, and it carries the per-link
// communication physics a flat model cannot express. The two programs
// are structurally identical — same tasks, same messages — only the
// link each message crosses differs; on a FLAT machine the two
// placements price identically and the ratio prints as 1.00.
//
// Besides the text table, results go to results/bench_topology.json
// (override with --json=PATH), tagged with the resolved machine model.
//
// Flags: the common set; --threads=16,32 doubles as the RANK counts
// (default 16 and 32 — a 4x2x4-PE hier4x8 machine half and fully
// populated); --machine=PRESET|FILE.json (default hier4x8) must name a
// hierarchical machine for the comparison to be meaningful.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sim_trace.hpp"
#include "common.hpp"
#include "core/lu_2d.hpp"
#include "sim/event_sim.hpp"
#include "sim/machine_spec.hpp"
#include "trace/analyze.hpp"
#include "util/table.hpp"

namespace sstar::bench {
namespace {

struct Run {
  int ranks = 0;
  std::string grid;          // "RxC"
  double topo_cp = 0.0;      // realized CP, topology-aware placement
  double rr_cp = 0.0;        // realized CP, round-robin placement
  double topo_gap = 0.0;     // non-compute seconds on the topo CP
  double rr_gap = 0.0;       // non-compute seconds on the round-robin CP
  double speedup() const { return topo_cp > 0.0 ? rr_cp / topo_cp : 0.0; }
};

struct MatrixResult {
  std::string name;
  int n = 0;
  std::vector<Run> runs;
};

void write_json(const std::string& path, const std::string& machine_spec,
                const std::vector<std::pair<int, std::string>>& machines,
                const std::vector<MatrixResult>& results) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  out << "{\n  \"bench\": \"topology\",\n  \"machine_spec\": \""
      << machine_spec << "\",\n  \"machines\": {";
  for (std::size_t i = 0; i < machines.size(); ++i)
    out << (i ? ", " : "") << "\"" << machines[i].first
        << "\": " << machines[i].second;
  out << "},\n  \"matrices\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MatrixResult& m = results[i];
    out << "    {\"name\": \"" << m.name << "\", \"n\": " << m.n
        << ", \"runs\": [\n";
    for (std::size_t r = 0; r < m.runs.size(); ++r) {
      const Run& run = m.runs[r];
      out << "      {\"ranks\": " << run.ranks << ", \"grid\": \""
          << run.grid << "\", \"topology_aware_cp_seconds\": "
          << num(run.topo_cp)
          << ", \"round_robin_cp_seconds\": " << num(run.rr_cp)
          << ", \"topology_aware_cp_gap_seconds\": " << num(run.topo_gap)
          << ", \"round_robin_cp_gap_seconds\": " << num(run.rr_gap)
          << ", \"speedup\": " << num(run.speedup()) << "}"
          << (r + 1 < m.runs.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("JSON written to %s\n", path.c_str());
}

// Simulated realized critical path of the 2D async program under the
// given (placement-carrying) machine.
std::pair<double, double> simulated_cp(const BlockLayout& lay,
                                       const sim::MachineModel& m) {
  const sim::ParallelProgram prog =
      build_2d_program(lay, m, /*async=*/true);
  const sim::SimulationResult res = simulate(prog, m);
  const trace::Trace tr = analysis::simulated_trace(prog, res);
  const trace::CriticalPath cp = trace::realized_critical_path(tr);
  return {cp.makespan, cp.gap_seconds + cp.comm_seconds};
}

}  // namespace
}  // namespace sstar::bench

int main(int argc, char** argv) {
  using namespace sstar;
  using namespace sstar::bench;

  Options opt = Options::parse(argc, argv);
  const std::string machine_spec =
      opt.machine.empty() ? "hier4x8" : opt.machine;
  const std::vector<int> rank_counts =
      opt.threads.empty() ? std::vector<int>{16, 32} : opt.threads;
  std::vector<std::string> names = opt.select(gen::small_set());

  print_preamble(
      "Rank placement on a hierarchical machine (" + machine_spec + ")", opt);
  std::vector<std::pair<int, std::string>> machines;
  for (const int ranks : rank_counts) {
    const sim::MachineModel m = sim::resolve_machine(machine_spec, ranks);
    std::printf("machine (%d ranks): %s\n", ranks, m.describe().c_str());
    if (!m.hierarchical())
      std::printf(
          "  note: %s is FLAT — placements price identically, expect 1.00\n",
          machine_spec.c_str());
    machines.emplace_back(ranks, sim::machine_json(m));
  }

  TextTable table("bench_topology — topology-aware vs round-robin placement");
  table.set_header({"matrix", "ranks", "grid", "topo CP s", "rr CP s",
                    "topo gap s", "rr gap s", "rr/topo"});

  std::vector<MatrixResult> results;
  int placements_won = 0, comparisons = 0;
  for (const std::string& name : names) {
    const Prepared p = prepare_matrix(name, opt, /*need_gplu=*/false);
    const BlockLayout& lay = *p.setup.layout;

    MatrixResult mr;
    mr.name = name;
    mr.n = p.order;
    for (const int ranks : rank_counts) {
      const sim::MachineModel base =
          sim::resolve_machine(machine_spec, ranks);
      const sim::MachineModel topo =
          base.with_mapping(sim::GridMapping::kTopologyAware);
      const sim::MachineModel rr =
          base.with_mapping(sim::GridMapping::kRoundRobin);

      Run run;
      run.ranks = ranks;
      run.grid = std::to_string(base.grid.rows) + "x" +
                 std::to_string(base.grid.cols);
      std::tie(run.topo_cp, run.topo_gap) = simulated_cp(lay, topo);
      std::tie(run.rr_cp, run.rr_gap) = simulated_cp(lay, rr);
      ++comparisons;
      if (run.topo_cp < run.rr_cp) ++placements_won;

      table.add_row({matrix_label(p), std::to_string(ranks), run.grid,
                     fmt_double(run.topo_cp, 4), fmt_double(run.rr_cp, 4),
                     fmt_double(run.topo_gap, 4),
                     fmt_double(run.rr_gap, 4),
                     fmt_double(run.speedup(), 2)});
      mr.runs.push_back(std::move(run));
    }
    results.push_back(std::move(mr));
  }

  table.set_footnote(
      "Same 2D async SPMD program simulated on the same hierarchical "
      "machine under two rank placements; 'CP' = realized critical path "
      "of the simulated schedule, 'gap' = non-compute (communication + idle) seconds on that path. rr/topo > 1 means the topology-aware placement is faster.");
  table.print();
  std::printf("topology-aware placement faster on %d of %d runs\n",
              placements_won, comparisons);

  write_json(opt.json_path.empty() ? "results/bench_topology.json"
                                   : opt.json_path,
             machine_spec, machines, results);
  return 0;
}
