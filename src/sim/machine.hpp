// Machine models for the simulated distributed-memory substrate
// (DESIGN.md substitution #1).
//
// The paper's experiments ran on Cray T3D and T3E; the constants below
// are the paper's own measurements (§2 and §6): per-level BLAS rates for
// block size 25, shmem_put latency and bandwidth. Virtual processors'
// clocks advance according to these rates, so "parallel time" means
// what it means in the paper's analysis. Every model prices messages
// through its Topology (sim/topology.hpp): the flat T3D and T3E are one
// node of p PEs with one link cost, the hierarchical cluster has three.
#pragma once

#include <string>
#include <vector>

#include "sim/topology.hpp"

namespace sstar::sim {

/// A rectangular processor grid p = p_r x p_c. 1D codes use p_r = 1.
struct Grid {
  int rows = 1;
  int cols = 1;
  int size() const { return rows * cols; }
};

/// Choose the paper's preferred grid shape for p processors:
/// p_c/p_r ~ 2 with both powers of two when possible (§5.2: "in practice
/// we set p_c/p_r = 2").
Grid default_grid(int p);

/// How a 2D grid's ranks are placed onto a Topology's PEs.
enum class GridMapping {
  /// Cyclic across nodes (rank r -> node r mod nodes): the naive
  /// placement that scatters every column team over the network.
  kRoundRobin,
  /// Column-team-major: the pr ranks of grid column c occupy the
  /// consecutive PE range [c * pr, (c + 1) * pr), so the heavy
  /// Factor -> Update fan-out of the 2D code stays on the fastest
  /// links the shape allows.
  kTopologyAware,
};

/// Rank -> PE placement of `grid` on `topo` (grid.size() <= topo.pes()).
std::vector<int> map_grid_ranks(const Topology& topo, const Grid& grid,
                                GridMapping how);

struct MachineModel {
  std::string name;
  int processors = 1;
  Grid grid;

  // Compute rates in flops/second by BLAS level.
  double blas1_rate = 60e6;
  double blas2_rate = 85e6;
  double blas3_rate = 103e6;

  /// Fixed per-task dispatch overhead (runtime-system bookkeeping,
  /// index manipulation, buffer management). This is what supernode
  /// amalgamation amortizes: the paper's 20-50% gains (Table 4) come
  /// from fewer, larger tasks as much as from more BLAS-3.
  double task_overhead = 10e-6;

  // Communication (DESIGN.md §16): a message costs latency + bytes /
  // bandwidth on the link its ranks' PEs share. A flat machine such as
  // the T3D or T3E is one node of p PEs whose three links are equal.
  Topology topology;
  GridMapping mapping = GridMapping::kTopologyAware;
  std::vector<int> rank_to_pe;  ///< empty = identity placement

  /// Seconds to execute the given flop counts.
  double compute_seconds(double f1, double f2, double f3) const {
    return f1 / blas1_rate + f2 / blas2_rate + f3 / blas3_rate;
  }
  /// Seconds for a message of `bytes` to arrive after send when the
  /// placement is unknown: priced on the network (slowest) link.
  double comm_seconds(double bytes) const {
    return topology.network_link.seconds(bytes);
  }

  /// PE hosting rank r (identity when no explicit placement).
  int pe_of_rank(int r) const {
    return rank_to_pe.empty() ? r : rank_to_pe[static_cast<std::size_t>(r)];
  }
  /// Per-message latency of the link rank p -> rank q crosses.
  double latency_between(int p, int q) const {
    return topology.link_between(pe_of_rank(p), pe_of_rank(q)).latency;
  }
  /// Seconds for `bytes` from rank p to rank q, priced on that link.
  double comm_seconds_between(int p, int q, double bytes) const {
    return topology.link_between(pe_of_rank(p), pe_of_rank(q)).seconds(bytes);
  }

  /// Cray T3D: DGEMM 103 MFLOPS, DGEMV 85 MFLOPS (BSIZE = 25),
  /// shmem_put 126 MB/s at 2.7 us overhead.
  static MachineModel cray_t3d(int p);
  /// Cray T3E: DGEMM 388 MFLOPS, DGEMV 255 MFLOPS, 500 MB/s peak,
  /// ~1 us round-trip-average latency.
  static MachineModel cray_t3e(int p);
  /// Hierarchical demo cluster: 4 nodes x 2 sockets x 4 PEs with
  /// T3E-class compute rates and intra-socket << intra-node <<
  /// inter-node links. p <= 32; ranks placed topology-aware.
  static MachineModel hier_cluster(int p);
  /// Copy with grid shape `g` (g.size() == processors; 1 x p for 1D
  /// codes), re-deriving the rank placement under the mapping policy.
  MachineModel with_grid(Grid g) const;
  /// Copy with the given mapping policy (re-deriving rank_to_pe).
  MachineModel with_mapping(GridMapping how) const;
  /// One-line description for logs: name, grid, topology, mapping.
  std::string describe() const;
};

}  // namespace sstar::sim
