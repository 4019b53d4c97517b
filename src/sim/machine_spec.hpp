// Machine specification resolution: `--machine <preset|file.json>`.
//
// Tools and benchmarks accept a machine argument that is either a
// built-in preset name ("t3d", "t3e", "hier4x8") or a path to a JSON
// spec file. The JSON schema (DESIGN.md §16):
//
//   {
//     "name": "my-cluster",
//     "blas1_rate": 150e6, "blas2_rate": 255e6, "blas3_rate": 388e6,
//     "task_overhead": 4e-6,
//     // EITHER a flat machine (one node of `ranks` PEs, every link
//     // at this latency and bandwidth):
//     "latency": 1e-6, "bandwidth": 500e6,
//     // OR a hierarchical one:
//     "topology": {
//       "nodes": 4, "sockets_per_node": 2, "pes_per_socket": 4,
//       "socket":  {"latency": 2e-7, "bandwidth": 2e9},
//       "node":    {"latency": 8e-7, "bandwidth": 1.2e9},
//       "network": {"latency": 5e-6, "bandwidth": 2.5e8}
//     },
//     "mapping": "topology"        // or "round-robin"; optional
//   }
//
// machine_json() renders the resolved model (including its topology
// and rank placement) as a JSON object so results files are labelled
// with the machine they were produced on. Every model renders in the
// topology form; a flat one shows as 1 x 1 x p with three equal links.
#pragma once

#include <string>

#include "sim/machine.hpp"

namespace sstar::sim {

/// Resolve a preset name or JSON file path into a model with
/// `ranks` processors and the default grid shape. Throws CheckError
/// naming the spec on an unknown preset, unreadable file, or a
/// malformed/incomplete JSON spec.
MachineModel resolve_machine(const std::string& spec, int ranks);

/// The resolved model as a JSON object string (single line):
/// name, processors, grid, rates, topology and its link costs,
/// mapping and rank placement.
std::string machine_json(const MachineModel& m);

}  // namespace sstar::sim
