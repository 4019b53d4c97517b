// Hierarchical machine topology: nodes x sockets x PEs with per-link
// communication costs (DESIGN.md §16).
//
// The paper's flat (latency, bandwidth) pair models a Cray T3D/T3E
// torus where every hop costs the same: one node whose three links are
// equal (Topology::flat). Modern machines are hierarchies: PEs sharing
// a socket talk through cache, sockets in a node over the memory
// interconnect, nodes over the network — three link classes whose
// costs differ by orders of magnitude (intra-socket << intra-node <<
// inter-node). A Topology names the shape and the three LinkCosts;
// MachineModel consults it to price a message by the slowest link the
// (src, dst) PE pair actually crosses.
//
// PE numbering is locality-major:
//   pe = (node * sockets_per_node + socket) * pes_per_socket + index
// so consecutive PEs share a socket, the first sockets_per_node *
// pes_per_socket share a node, and so on. Grid-mapping helpers in
// sim/machine.hpp exploit this to pack 2D column teams onto fast links.
#pragma once

#include <string>

namespace sstar::sim {

/// One link class: time to move `bytes` across it is
/// latency + bytes / bandwidth (same law as the flat model).
struct LinkCost {
  double latency = 0.0;    ///< seconds per message
  double bandwidth = 1.0;  ///< bytes per second

  double seconds(double bytes) const { return latency + bytes / bandwidth; }
};

/// A nodes x sockets x PEs machine shape with per-level link costs.
struct Topology {
  int nodes = 1;
  int sockets_per_node = 1;
  int pes_per_socket = 1;

  LinkCost socket_link;   ///< both PEs in the same socket
  LinkCost node_link;     ///< same node, different sockets
  LinkCost network_link;  ///< different nodes

  /// One node of `pes` PEs in one socket, every link `link`: the
  /// paper's flat machine.
  static Topology flat(int pes, LinkCost link) {
    return {1, 1, pes, link, link, link};
  }

  int pes_per_node() const { return sockets_per_node * pes_per_socket; }
  int pes() const { return nodes * pes_per_node(); }

  int node_of(int pe) const { return pe / pes_per_node(); }
  int socket_of(int pe) const { return pe / pes_per_socket; }

  /// The link class a (pe_a, pe_b) message crosses. A PE talking to
  /// itself is priced as the (fastest) socket link; the event
  /// simulator never charges same-rank messages, so this only defines
  /// a floor for degenerate queries.
  const LinkCost& link_between(int pe_a, int pe_b) const {
    if (node_of(pe_a) != node_of(pe_b)) return network_link;
    if (socket_of(pe_a) != socket_of(pe_b)) return node_link;
    return socket_link;
  }

  /// "4x2x4 nodes x sockets x PEs" (for logs and JSON metadata).
  std::string describe() const;
};

}  // namespace sstar::sim
