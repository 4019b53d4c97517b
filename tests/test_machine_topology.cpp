// Machine model tests (DESIGN.md §16): per-link pricing, grid-rank
// placement, flat-model parity (the t3d/t3e presets are one-node
// topologies that price every rank pair at the paper's latency +
// bytes / bandwidth, and a uniform multi-node topology simulates bit
// for bit like them), JSON machine specs, and the
// topology-aware-vs-round-robin simulated win the mapping exists for.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/lu_2d.hpp"
#include "ordering/transversal.hpp"
#include "sim/event_sim.hpp"
#include "sim/machine.hpp"
#include "sim/machine_spec.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace sstar {
namespace {

struct Fixture {
  SparseMatrix a;
  StaticStructure s;
  std::unique_ptr<BlockLayout> layout;

  static Fixture make(int n, std::uint64_t seed) {
    Fixture f;
    f.a = make_zero_free_diagonal(testing::random_sparse(n, 4, seed));
    f.s = static_symbolic_factorization(f.a);
    auto part = amalgamate(f.s, find_supernodes(f.s, 8), 4, 8);
    f.layout = std::make_unique<BlockLayout>(f.s, std::move(part));
    return f;
  }
};

// The flat machine's one link spread over a 2-node, 2-socket topology:
// placements then cross all three link classes, each at the same cost.
sim::MachineModel uniform_hier(const sim::MachineModel& flat) {
  sim::MachineModel m = flat;
  const sim::LinkCost uniform = flat.topology.network_link;
  m.topology = {2, 2, (flat.processors + 3) / 4, uniform, uniform, uniform};
  m.rank_to_pe = sim::map_grid_ranks(m.topology, m.grid, m.mapping);
  return m;
}

TEST(MachineTopology, PresetsStayFlat) {
  struct Preset {
    sim::MachineModel m;
    double latency, bandwidth, blas3_rate;
  };
  // The paper's constants, pinned: any drift would silently re-time
  // every simulation in the suite.
  for (const Preset& pre : {Preset{sim::MachineModel::cray_t3d(8), 2.7e-6,
                                   126e6, 103e6},
                            Preset{sim::MachineModel::cray_t3e(8), 1.0e-6,
                                   500e6, 388e6}}) {
    const sim::Topology& topo = pre.m.topology;
    EXPECT_EQ(topo.nodes, 1) << pre.m.name;
    EXPECT_EQ(topo.sockets_per_node, 1) << pre.m.name;
    EXPECT_EQ(topo.pes_per_socket, 8) << pre.m.name;
    for (const sim::LinkCost* link :
         {&topo.socket_link, &topo.node_link, &topo.network_link}) {
      EXPECT_EQ(link->latency, pre.latency) << pre.m.name;
      EXPECT_EQ(link->bandwidth, pre.bandwidth) << pre.m.name;
    }
    EXPECT_EQ(pre.m.blas3_rate, pre.blas3_rate) << pre.m.name;
    // Every rank pair, under both mappings and after a reshape, pays
    // exactly the flat law.
    for (const sim::MachineModel& m :
         {pre.m.with_mapping(sim::GridMapping::kTopologyAware),
          pre.m.with_mapping(sim::GridMapping::kRoundRobin),
          pre.m.with_grid({1, 8}), pre.m.with_grid({4, 2})}) {
      for (const double bytes : {0.0, 64.0, 8192.0}) {
        const double flat = pre.latency + bytes / pre.bandwidth;
        EXPECT_EQ(m.comm_seconds(bytes), flat) << m.name;
        for (int p = 0; p < m.processors; ++p)
          for (int q = 0; q < m.processors; ++q) {
            ASSERT_EQ(m.comm_seconds_between(p, q, bytes), flat)
                << m.name << " " << p << " -> " << q;
            ASSERT_EQ(m.latency_between(p, q), pre.latency);
          }
      }
    }
  }
}

TEST(MachineTopology, LinkSelection) {
  const auto m = sim::MachineModel::hier_cluster(32);
  const auto& topo = m.topology;
  EXPECT_EQ(topo.pes(), 32);
  EXPECT_EQ(topo.pes_per_node(), 8);
  // PEs 0 and 3 share socket 0; 0 and 4 share node 0 across sockets;
  // 0 and 8 are on different nodes.
  EXPECT_EQ(&topo.link_between(0, 3), &topo.socket_link);
  EXPECT_EQ(&topo.link_between(0, 4), &topo.node_link);
  EXPECT_EQ(&topo.link_between(0, 8), &topo.network_link);
  EXPECT_LT(topo.socket_link.latency, topo.node_link.latency);
  EXPECT_LT(topo.node_link.latency, topo.network_link.latency);
  EXPECT_GT(topo.socket_link.bandwidth, topo.network_link.bandwidth);
  // Placement-agnostic code prices on the worst (network) link.
  EXPECT_EQ(m.comm_seconds(4096.0), topo.network_link.seconds(4096.0));
}

TEST(MachineTopology, GridMappings) {
  sim::Topology topo;
  topo.nodes = 4;
  topo.sockets_per_node = 2;
  topo.pes_per_socket = 4;
  const sim::Grid grid{8, 2};  // 16 ranks, column teams of 8

  const auto aware =
      sim::map_grid_ranks(topo, grid, sim::GridMapping::kTopologyAware);
  const auto rr =
      sim::map_grid_ranks(topo, grid, sim::GridMapping::kRoundRobin);
  ASSERT_EQ(aware.size(), 16u);
  ASSERT_EQ(rr.size(), 16u);

  // Topology-aware: every column team lives on one node.
  for (int c = 0; c < grid.cols; ++c) {
    for (int r = 0; r < grid.rows; ++r) {
      const int rank = r * grid.cols + c;
      EXPECT_EQ(topo.node_of(aware[static_cast<std::size_t>(rank)]), c);
    }
  }
  // Round-robin: rank r sits on node r mod nodes, so the stride-pc
  // column teams straddle nodes.
  for (int r = 0; r < 16; ++r)
    EXPECT_EQ(topo.node_of(rr[static_cast<std::size_t>(r)]), r % 4);

  // Placements are permutations of distinct PEs.
  for (const auto& map : {aware, rr}) {
    std::vector<int> seen(static_cast<std::size_t>(topo.pes()), 0);
    for (const int pe : map) {
      ASSERT_GE(pe, 0);
      ASSERT_LT(pe, topo.pes());
      EXPECT_EQ(seen[static_cast<std::size_t>(pe)]++, 0);
    }
  }

  // Too many ranks for the shape fails loudly.
  EXPECT_THROW(sim::map_grid_ranks(topo, sim::Grid{8, 5},
                                   sim::GridMapping::kTopologyAware),
               CheckError);
}

TEST(MachineTopology, FlatParitySimulatedScheduleBitwise) {
  const auto f = Fixture::make(90, 11);
  for (const bool async : {true, false}) {
    const auto flat = sim::MachineModel::cray_t3e(8);
    const auto hier = uniform_hier(flat);
    auto prog_flat = build_2d_program(*f.layout, flat, async);
    auto prog_hier = build_2d_program(*f.layout, hier, async);
    const auto res_flat = sim::simulate(prog_flat, flat);
    const auto res_hier = sim::simulate(prog_hier, hier);
    ASSERT_EQ(res_flat.start.size(), res_hier.start.size());
    EXPECT_EQ(res_flat.makespan, res_hier.makespan);
    for (std::size_t t = 0; t < res_flat.start.size(); ++t) {
      ASSERT_EQ(res_flat.start[t], res_hier.start[t]) << "task " << t;
      ASSERT_EQ(res_flat.finish[t], res_hier.finish[t]) << "task " << t;
    }
  }
}

TEST(MachineTopology, TopologyAwareMappingBeatsRoundRobinSimulated) {
  const auto f = Fixture::make(120, 7);
  const auto base =
      sim::MachineModel::hier_cluster(16).with_grid(sim::Grid{8, 2});
  const auto aware = base.with_mapping(sim::GridMapping::kTopologyAware);
  const auto rr = base.with_mapping(sim::GridMapping::kRoundRobin);
  auto prog_aware = build_2d_program(*f.layout, aware, true);
  auto prog_rr = build_2d_program(*f.layout, rr, true);
  const double t_aware = sim::simulate(prog_aware, aware).makespan;
  const double t_rr = sim::simulate(prog_rr, rr).makespan;
  EXPECT_LT(t_aware, t_rr);
}

TEST(MachineTopology, ResolvePresets) {
  EXPECT_EQ(sim::resolve_machine("t3d", 4).name, "Cray-T3D");
  EXPECT_EQ(sim::resolve_machine("t3e", 8).name, "Cray-T3E");
  const auto h = sim::resolve_machine("hier4x8", 16);
  EXPECT_EQ(h.topology.nodes, 4);
  EXPECT_EQ(h.processors, 16);
  EXPECT_THROW(sim::resolve_machine("t3f", 4), CheckError);
  EXPECT_THROW(sim::resolve_machine("/nonexistent/machine.json", 4),
               CheckError);
}

TEST(MachineTopology, ResolveJsonSpecFile) {
  const std::string path = ::testing::TempDir() + "machine_spec_test.json";
  {
    std::ofstream out(path);
    out << R"({
      "name": "test-cluster",
      "blas3_rate": 400e6,
      "topology": {
        "nodes": 2, "sockets_per_node": 2, "pes_per_socket": 2,
        "socket":  {"latency": 1e-7, "bandwidth": 4e9},
        "node":    {"latency": 5e-7, "bandwidth": 2e9},
        "network": {"latency": 4e-6, "bandwidth": 3e8}
      },
      "mapping": "round-robin"
    })";
  }
  const auto m = sim::resolve_machine(path, 8);
  EXPECT_EQ(m.name, "test-cluster");
  EXPECT_EQ(m.processors, 8);
  EXPECT_EQ(m.blas3_rate, 400e6);
  EXPECT_EQ(m.mapping, sim::GridMapping::kRoundRobin);
  EXPECT_EQ(m.topology.nodes, 2);
  EXPECT_EQ(m.topology.network_link.latency, 4e-6);
  EXPECT_EQ(m.topology.network_link.bandwidth, 3e8);
  EXPECT_EQ(m.rank_to_pe.size(), 8u);

  // Flat spec.
  const std::string flat_path = ::testing::TempDir() + "machine_flat.json";
  {
    std::ofstream out(flat_path);
    out << R"({"name": "flat-lab", "latency": 2e-6, "bandwidth": 1e8})";
  }
  const auto fm = sim::resolve_machine(flat_path, 4);
  EXPECT_EQ(fm.topology.nodes, 1);
  EXPECT_EQ(fm.topology.pes(), 4);
  EXPECT_EQ(fm.comm_seconds_between(0, 3, 100.0), 2e-6 + 100.0 / 1e8);

  // A spec with neither topology nor flat costs is rejected.
  const std::string bad_path = ::testing::TempDir() + "machine_bad.json";
  {
    std::ofstream out(bad_path);
    out << R"({"name": "incomplete"})";
  }
  EXPECT_THROW(sim::resolve_machine(bad_path, 4), CheckError);

  std::remove(path.c_str());
  std::remove(flat_path.c_str());
  std::remove(bad_path.c_str());
}

TEST(MachineTopology, MachineJsonMetadataRoundTrips) {
  const auto m = sim::MachineModel::hier_cluster(16);
  const auto doc = util::parse_json(sim::machine_json(m));
  EXPECT_EQ(doc.at("name").as_string(), "hier4x8");
  EXPECT_EQ(doc.at("processors").as_number(), 16.0);
  EXPECT_EQ(doc.at("topology").at("nodes").as_number(), 4.0);
  EXPECT_EQ(doc.at("mapping").as_string(), "topology");
  EXPECT_EQ(doc.at("rank_to_pe").items.size(), 16u);

  // A flat machine renders in the same form: one node of p PEs whose
  // three links carry the flat latency and bandwidth.
  const auto flat = util::parse_json(
      sim::machine_json(sim::MachineModel::cray_t3d(4)));
  const util::JsonValue& topo = flat.at("topology");
  EXPECT_EQ(topo.at("nodes").as_number(), 1.0);
  EXPECT_EQ(topo.at("sockets_per_node").as_number(), 1.0);
  EXPECT_EQ(topo.at("pes_per_socket").as_number(), 4.0);
  for (const char* link : {"socket", "node", "network"}) {
    EXPECT_EQ(topo.at(link).at("latency").as_number(), 2.7e-6) << link;
    EXPECT_EQ(topo.at(link).at("bandwidth").as_number(), 126e6) << link;
  }
  EXPECT_EQ(flat.at("mapping").as_string(), "topology");
  EXPECT_EQ(flat.at("rank_to_pe").items.size(), 4u);
  EXPECT_FALSE(flat.has("latency"));
}

// machine_json writes every cost in the shortest form that reads back
// to the same double, and quotes whatever the name holds.
TEST(MachineTopology, MachineJsonKeepsExactCosts) {
  const std::string path = ::testing::TempDir() + "machine_exact.json";
  {
    std::ofstream out(path);
    out << R"({"name": "q/lab\"1", "latency": 1.2345678901e-6,)"
        << R"( "bandwidth": 123456789.125, "task_overhead": 3.3e-7})";
  }
  const auto m = sim::resolve_machine(path, 4);
  std::remove(path.c_str());
  const auto doc = util::parse_json(sim::machine_json(m));
  EXPECT_EQ(doc.at("name").as_string(), "q/lab\"1");
  EXPECT_EQ(doc.at("task_overhead").as_number(), 3.3e-7);
  for (const char* link : {"socket", "node", "network"}) {
    const util::JsonValue& l = doc.at("topology").at(link);
    EXPECT_EQ(l.at("latency").as_number(), 1.2345678901e-6) << link;
    EXPECT_EQ(l.at("bandwidth").as_number(), 123456789.125) << link;
  }
}

TEST(MachineTopology, JsonParserBasics) {
  const auto v = util::parse_json(
      R"({"a": [1, 2.5, -3e-2], "s": "x\n\"y\"", "t": true, "n": null})");
  EXPECT_EQ(v.at("a").items.size(), 3u);
  EXPECT_EQ(v.at("a").items[2].as_number(), -3e-2);
  EXPECT_EQ(v.at("s").as_string(), "x\n\"y\"");
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_EQ(v.at("n").kind, util::JsonValue::Kind::kNull);
  EXPECT_FALSE(v.has("missing"));
  EXPECT_THROW(v.at("missing"), CheckError);
  EXPECT_THROW(v.at("s").as_number(), CheckError);

  EXPECT_THROW(util::parse_json("{\"a\": }"), CheckError);
  EXPECT_THROW(util::parse_json("[1, 2"), CheckError);
  EXPECT_THROW(util::parse_json("{} garbage"), CheckError);
  EXPECT_THROW(util::parse_json("\"unterminated"), CheckError);
}

TEST(MachineTopology, WithGridRederivesPlacement) {
  const auto m = sim::MachineModel::hier_cluster(16);
  const auto tall = m.with_grid(sim::Grid{16, 1});
  ASSERT_EQ(tall.rank_to_pe.size(), 16u);
  // One 16-rank column team: topology-aware packs ranks 0..15 onto
  // consecutive PEs.
  for (int r = 0; r < 16; ++r) EXPECT_EQ(tall.pe_of_rank(r), r);
}

}  // namespace
}  // namespace sstar
