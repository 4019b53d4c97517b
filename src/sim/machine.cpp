#include "sim/machine.hpp"

#include <cstdio>

#include "util/check.hpp"

namespace sstar::sim {

Grid default_grid(int p) {
  SSTAR_CHECK(p >= 1);
  // Largest p_r with p_r * 2 p_r <= p when p is 2 * 4^k; otherwise the
  // closest factor pair with cols/rows ratio nearest 2.
  Grid best{1, p};
  double best_score = 1e300;
  for (int r = 1; r * r <= 2 * p; ++r) {
    if (p % r != 0) continue;
    const int c = p / r;
    if (c < r) break;
    const double ratio = static_cast<double>(c) / r;
    const double score = ratio >= 2.0 ? ratio - 2.0 : 2.0 * (2.0 - ratio);
    if (score < best_score) {
      best_score = score;
      best = {r, c};
    }
  }
  return best;
}

MachineModel MachineModel::cray_t3d(int p) {
  MachineModel m;
  m.name = "Cray-T3D";
  m.processors = p;
  m.grid = default_grid(p);
  m.blas1_rate = 50e6;
  m.blas2_rate = 85e6;
  m.blas3_rate = 103e6;
  m.task_overhead = 10e-6;
  m.topology = Topology::flat(p, {2.7e-6, 126e6});
  m.rank_to_pe = map_grid_ranks(m.topology, m.grid, m.mapping);
  return m;
}

MachineModel MachineModel::cray_t3e(int p) {
  MachineModel m;
  m.name = "Cray-T3E";
  m.processors = p;
  m.grid = default_grid(p);
  m.blas1_rate = 150e6;
  m.blas2_rate = 255e6;
  m.blas3_rate = 388e6;
  m.task_overhead = 4e-6;
  m.topology = Topology::flat(p, {1.0e-6, 500e6});
  m.rank_to_pe = map_grid_ranks(m.topology, m.grid, m.mapping);
  return m;
}

std::vector<int> map_grid_ranks(const Topology& topo, const Grid& grid,
                                GridMapping how) {
  const int p = grid.size();
  SSTAR_CHECK_MSG(p >= 1 && p <= topo.pes(),
                  "grid of " << p << " ranks does not fit topology with "
                             << topo.pes() << " PEs");
  std::vector<int> pe(static_cast<std::size_t>(p));
  if (how == GridMapping::kTopologyAware) {
    // Column-team-major: grid column c's pr ranks get the consecutive
    // (locality-major) PE range [c * pr, (c + 1) * pr).
    for (int r = 0; r < grid.rows; ++r)
      for (int c = 0; c < grid.cols; ++c)
        pe[static_cast<std::size_t>(r * grid.cols + c)] = c * grid.rows + r;
  } else {
    // Cyclic across nodes: rank r -> node (r mod nodes), filling each
    // node's PEs in arrival order.
    std::vector<int> next(static_cast<std::size_t>(topo.nodes), 0);
    for (int r = 0; r < p; ++r) {
      const int node = r % topo.nodes;
      const int slot = next[static_cast<std::size_t>(node)]++;
      SSTAR_CHECK(slot < topo.pes_per_node());
      pe[static_cast<std::size_t>(r)] = node * topo.pes_per_node() + slot;
    }
  }
  return pe;
}

MachineModel MachineModel::hier_cluster(int p) {
  MachineModel m;
  m.name = "hier4x8";
  m.processors = p;
  m.grid = default_grid(p);
  m.blas1_rate = 150e6;
  m.blas2_rate = 255e6;
  m.blas3_rate = 388e6;
  m.task_overhead = 4e-6;
  m.topology.nodes = 4;
  m.topology.sockets_per_node = 2;
  m.topology.pes_per_socket = 4;
  m.topology.socket_link = {0.2e-6, 2e9};
  m.topology.node_link = {0.8e-6, 1.2e9};
  m.topology.network_link = {5.0e-6, 0.25e9};
  m.rank_to_pe = map_grid_ranks(m.topology, m.grid, m.mapping);
  return m;
}

MachineModel MachineModel::with_grid(Grid g) const {
  SSTAR_CHECK(g.size() == processors);
  MachineModel m = *this;
  m.grid = g;
  m.rank_to_pe = map_grid_ranks(m.topology, g, m.mapping);
  return m;
}

MachineModel MachineModel::with_mapping(GridMapping how) const {
  MachineModel m = *this;
  m.mapping = how;
  m.rank_to_pe = map_grid_ranks(m.topology, m.grid, how);
  return m;
}

std::string MachineModel::describe() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s: p=%d grid=%dx%d %s, %s mapping",
                name.c_str(), processors, grid.rows, grid.cols,
                topology.describe().c_str(),
                mapping == GridMapping::kTopologyAware ? "topology-aware"
                                                       : "round-robin");
  return buf;
}

}  // namespace sstar::sim
