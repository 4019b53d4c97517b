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
  // The results document is written as the runs complete.
  util::JsonWriter json;
  json.begin_object().field("bench", "topology");
  json.field("machine_spec", machine_spec).key("machines").begin_object();
  for (const int ranks : rank_counts) {
    const sim::MachineModel m = sim::resolve_machine(machine_spec, ranks);
    std::printf("machine (%d ranks): %s\n", ranks, m.describe().c_str());
    json.key(std::to_string(ranks));
    sim::write_machine(json, m);
  }
  json.end_object().key("matrices").begin_array();

  TextTable table("bench_topology — topology-aware vs round-robin placement");
  table.set_header({"matrix", "ranks", "grid", "topo CP s", "rr CP s",
                    "topo gap s", "rr gap s", "rr/topo"});

  int placements_won = 0, comparisons = 0;
  for (const std::string& name : names) {
    const Prepared p = prepare_matrix(name, opt, /*need_gplu=*/false);
    const BlockLayout& lay = *p.setup.layout;
    json.begin_object().field("name", name).field("n", p.order);
    json.key("runs").begin_array();
    for (const int ranks : rank_counts) {
      const sim::MachineModel base =
          sim::resolve_machine(machine_spec, ranks);
      const std::string grid = std::to_string(base.grid.rows) + "x" +
                               std::to_string(base.grid.cols);
      // Realized CP and its non-compute seconds under each placement.
      const auto [topo_cp, topo_gap] = simulated_cp(
          lay, base.with_mapping(sim::GridMapping::kTopologyAware));
      const auto [rr_cp, rr_gap] = simulated_cp(
          lay, base.with_mapping(sim::GridMapping::kRoundRobin));
      const double speedup = topo_cp > 0.0 ? rr_cp / topo_cp : 0.0;
      ++comparisons;
      if (topo_cp < rr_cp) ++placements_won;

      table.add_row({matrix_label(p), std::to_string(ranks), grid,
                     fmt_double(topo_cp, 4), fmt_double(rr_cp, 4),
                     fmt_double(topo_gap, 4), fmt_double(rr_gap, 4),
                     fmt_double(speedup, 2)});
      json.begin_object().field("ranks", ranks).field("grid", grid);
      json.field("topology_aware_cp_seconds", topo_cp);
      json.field("round_robin_cp_seconds", rr_cp);
      json.field("topology_aware_cp_gap_seconds", topo_gap);
      json.field("round_robin_cp_gap_seconds", rr_gap);
      json.field("speedup", speedup).end_object();
    }
    json.end_array().end_object();
  }
  json.end_array().end_object();

  table.set_footnote(
      "Same 2D async SPMD program simulated on the same hierarchical "
      "machine under two rank placements; 'CP' = realized critical path "
      "of the simulated schedule, 'gap' = non-compute (communication + idle) seconds on that path. rr/topo > 1 means the topology-aware placement is faster.");
  table.print();
  std::printf("topology-aware placement faster on %d of %d runs\n",
              placements_won, comparisons);

  write_results("topology", opt.json_path, json);
  return 0;
}
