#include "analysis/reachability.hpp"

#include <numeric>

#include "util/check.hpp"

namespace sstar::analysis {

namespace {

std::vector<int> all_nodes(int num_nodes) {
  std::vector<int> nodes(static_cast<std::size_t>(num_nodes));
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

}  // namespace

Reachability::Reachability(int num_nodes,
                           const std::vector<std::pair<int, int>>& edges)
    : Reachability(num_nodes, edges, all_nodes(num_nodes)) {}

Reachability::Reachability(int num_nodes,
                           const std::vector<std::pair<int, int>>& edges,
                           const std::vector<int>& targets)
    : words_((targets.size() + 63) / 64),
      index_(static_cast<std::size_t>(num_nodes), -1) {
  const int n = num_nodes;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const int t = targets[i];
    SSTAR_CHECK_MSG(t >= 0 && t < n && index_[static_cast<std::size_t>(t)] < 0,
                    "target " << t << " is outside node range [0, " << n
                              << ") or repeated");
    index_[static_cast<std::size_t>(t)] = static_cast<int>(i);
  }

  std::vector<std::vector<int>> succs(static_cast<std::size_t>(n));
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (const auto& [from, to] : edges) {
    SSTAR_CHECK_MSG(from >= 0 && from < n && to >= 0 && to < n,
                    "edge (" << from << " -> " << to
                             << ") outside node range [0, " << n << ")");
    succs[static_cast<std::size_t>(from)].push_back(to);
    ++indeg[static_cast<std::size_t>(to)];
  }
  // Predecessors that have yet to read each node's row.
  std::vector<int> unread = indeg;

  std::vector<int> topo;
  topo.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t)
    if (indeg[static_cast<std::size_t>(t)] == 0) topo.push_back(t);
  for (std::size_t head = 0; head < topo.size(); ++head)
    for (const int s : succs[static_cast<std::size_t>(topo[head])])
      if (--indeg[static_cast<std::size_t>(s)] == 0) topo.push_back(s);
  SSTAR_CHECK_MSG(static_cast<int>(topo.size()) == n,
                  "graph has a cycle ("
                      << n - static_cast<int>(topo.size())
                      << " nodes on cycles)");

  // Non-target rows live only until their last predecessor reads them
  // (and a node without predecessors needs none).
  bits_.assign(targets.size() * words_, 0);
  std::vector<std::vector<std::uint64_t>> relay(static_cast<std::size_t>(n));
  auto row_of = [&](int t) -> std::uint64_t* {
    const int i = index_[static_cast<std::size_t>(t)];
    return i >= 0 ? bits_.data() + static_cast<std::size_t>(i) * words_
                  : relay[static_cast<std::size_t>(t)].data();
  };
  for (std::size_t idx = topo.size(); idx-- > 0;) {
    const int t = topo[idx];
    const std::size_t ut = static_cast<std::size_t>(t);
    std::uint64_t* rt = nullptr;
    if (index_[ut] >= 0) {
      rt = row_of(t);
    } else if (unread[ut] > 0) {
      relay[ut].assign(words_, 0);
      rt = relay[ut].data();
    }
    for (const int s : succs[ut]) {
      const std::size_t us = static_cast<std::size_t>(s);
      if (rt != nullptr) {
        if (index_[us] >= 0) {
          const auto bit = static_cast<unsigned>(index_[us]);
          rt[bit >> 6] |= std::uint64_t{1} << (bit & 63u);
        }
        const std::uint64_t* rs = row_of(s);
        for (std::size_t w = 0; w < words_; ++w) rt[w] |= rs[w];
      }
      if (--unread[us] == 0 && index_[us] < 0)
        std::vector<std::uint64_t>().swap(relay[us]);
    }
  }
}

}  // namespace sstar::analysis
