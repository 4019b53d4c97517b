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
// write_machine() writes the resolved model (including its topology
// and rank placement) as a JSON object through util::JsonWriter, so
// results files are labelled with the machine they were produced on;
// machine_json() is the same object as a one-line document. Every model
// renders in the topology form; a flat one shows as 1 x 1 x p with
// three equal links.
#pragma once

#include <string>

#include "sim/machine.hpp"
#include "util/json.hpp"

namespace sstar::sim {

/// Resolve a preset name or JSON file path into a model with
/// `ranks` processors and the default grid shape. Throws CheckError
/// naming the spec on an unknown preset, unreadable file, or a
/// malformed/incomplete JSON spec.
MachineModel resolve_machine(const std::string& spec, int ranks);

/// Write the resolved model as one JSON object value: name,
/// processors, grid, rates, topology and its link costs, mapping and
/// rank placement.
void write_machine(util::JsonWriter& w, const MachineModel& m);

/// write_machine() as a complete one-line document.
std::string machine_json(const MachineModel& m);

}  // namespace sstar::sim
