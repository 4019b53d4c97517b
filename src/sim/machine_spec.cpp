#include "sim/machine_spec.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "util/check.hpp"
#include "util/json.hpp"

namespace sstar::sim {
namespace {

LinkCost parse_link(const util::JsonValue& v, const char* which) {
  SSTAR_CHECK_MSG(v.is_object(), "topology link '" << which
                                                   << "' must be an object");
  LinkCost link;
  link.latency = v.at("latency").as_number();
  link.bandwidth = v.at("bandwidth").as_number();
  SSTAR_CHECK_MSG(link.latency >= 0.0 && link.bandwidth > 0.0,
                  "topology link '" << which << "' has non-physical costs");
  return link;
}

MachineModel machine_from_json(const std::string& path, int ranks) {
  std::ifstream in(path);
  SSTAR_CHECK_MSG(in.good(), "cannot read machine spec file '" << path << "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const util::JsonValue doc = util::parse_json(buf.str());
  SSTAR_CHECK_MSG(doc.is_object(),
                  "machine spec '" << path << "' is not a JSON object");

  // Start from T3E-class defaults so specs only name what they change.
  MachineModel m = MachineModel::cray_t3e(ranks);
  m.name = doc.has("name") ? doc.at("name").as_string() : path;
  if (doc.has("blas1_rate")) m.blas1_rate = doc.at("blas1_rate").as_number();
  if (doc.has("blas2_rate")) m.blas2_rate = doc.at("blas2_rate").as_number();
  if (doc.has("blas3_rate")) m.blas3_rate = doc.at("blas3_rate").as_number();
  if (doc.has("task_overhead"))
    m.task_overhead = doc.at("task_overhead").as_number();

  if (const util::JsonValue* topo = doc.find("topology")) {
    m.topology.nodes = static_cast<int>(topo->at("nodes").as_number());
    m.topology.sockets_per_node =
        static_cast<int>(topo->at("sockets_per_node").as_number());
    m.topology.pes_per_socket =
        static_cast<int>(topo->at("pes_per_socket").as_number());
    SSTAR_CHECK_MSG(m.topology.nodes >= 1 &&
                        m.topology.sockets_per_node >= 1 &&
                        m.topology.pes_per_socket >= 1,
                    "machine spec '" << path << "' has an empty topology");
    m.topology.socket_link = parse_link(topo->at("socket"), "socket");
    m.topology.node_link = parse_link(topo->at("node"), "node");
    m.topology.network_link = parse_link(topo->at("network"), "network");
  } else {
    SSTAR_CHECK_MSG(doc.has("latency") && doc.has("bandwidth"),
                    "machine spec '"
                        << path
                        << "' needs either a topology or flat "
                           "latency/bandwidth");
    m.topology = Topology::flat(ranks, parse_link(doc, "flat"));
  }
  if (doc.has("mapping")) {
    const std::string& how = doc.at("mapping").as_string();
    if (how == "round-robin")
      m.mapping = GridMapping::kRoundRobin;
    else
      SSTAR_CHECK_MSG(how == "topology" || how == "topology-aware",
                      "machine spec '" << path << "' has unknown mapping '"
                                       << how << "'");
  }
  m.rank_to_pe = map_grid_ranks(m.topology, m.grid, m.mapping);
  return m;
}

void write_link(util::JsonWriter& w, const char* which, const LinkCost& l) {
  w.key(which).begin_object();
  w.field("latency", l.latency).field("bandwidth", l.bandwidth);
  w.end_object();
}

}  // namespace

MachineModel resolve_machine(const std::string& spec, int ranks) {
  if (spec == "t3d") return MachineModel::cray_t3d(ranks);
  if (spec == "t3e") return MachineModel::cray_t3e(ranks);
  if (spec == "hier4x8" || spec == "hier")
    return MachineModel::hier_cluster(ranks);
  SSTAR_CHECK_MSG(spec.size() > 5 &&
                      spec.compare(spec.size() - 5, 5, ".json") == 0,
                  "unknown machine preset '"
                      << spec << "' (expected t3d, t3e, hier4x8, or a "
                                 ".json spec file)");
  return machine_from_json(spec, ranks);
}

void write_machine(util::JsonWriter& w, const MachineModel& m) {
  w.begin_object().field("name", m.name).field("processors", m.processors);
  w.key("grid").begin_object();
  w.field("rows", m.grid.rows).field("cols", m.grid.cols).end_object();
  w.field("blas_rates",
          std::vector<double>{m.blas1_rate, m.blas2_rate, m.blas3_rate});
  w.field("task_overhead", m.task_overhead);
  w.key("topology").begin_object();
  w.field("nodes", m.topology.nodes)
      .field("sockets_per_node", m.topology.sockets_per_node)
      .field("pes_per_socket", m.topology.pes_per_socket);
  write_link(w, "socket", m.topology.socket_link);
  write_link(w, "node", m.topology.node_link);
  write_link(w, "network", m.topology.network_link);
  w.end_object();
  w.field("mapping", m.mapping == GridMapping::kTopologyAware ? "topology"
                                                              : "round-robin");
  w.key("rank_to_pe").begin_array();
  for (int r = 0; r < m.processors; ++r) w.value(m.pe_of_rank(r));
  w.end_array().end_object();
}

std::string machine_json(const MachineModel& m) {
  util::JsonWriter w;
  write_machine(w, m);
  return w.str();
}

}  // namespace sstar::sim
