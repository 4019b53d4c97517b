// Bitset-based transitive closure of a DAG, over a set of target nodes.
//
// The dependence auditor needs "is there a path from task a to task b?"
// for every conflicting access pair, and the trace validator for every
// pair of measured tasks, so the closure is materialized once — one
// bitset row per node over the m target nodes, filled in reverse
// topological order: reach(t) = union over successors s of
// (({s} ∩ targets) ∪ reach(s)). Paths run through every node, but only
// the targets' rows are kept: any other node's row is dropped once its
// last predecessor has read it. Memory is m²/8 bytes for the kept rows
// plus m/8 bytes per row still awaiting a reader (the 139k-task 2D
// program of sherman5 on 32 ranks has 7.8k kernel tasks: ~8 MB of kept
// rows, where a closure over every task costs n²/8 = 2.4 GB);
// construction is O(E · m / 64).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace sstar::analysis {

class Reachability {
 public:
  /// Close over every node of the graph given by directed edges over
  /// nodes [0, num_nodes). Throws CheckError on out-of-range endpoints
  /// or a cycle.
  Reachability(int num_nodes,
               const std::vector<std::pair<int, int>>& edges);

  /// Close over `targets` only (distinct nodes): reaches() and
  /// ordered() then answer for pairs of targets. Throws CheckError as
  /// above, or on an out-of-range or repeated target.
  Reachability(int num_nodes,
               const std::vector<std::pair<int, int>>& edges,
               const std::vector<int>& targets);

  /// True iff a non-empty path from target `from` leads to target `to`.
  bool reaches(int from, int to) const {
    const auto bit =
        static_cast<unsigned>(index_[static_cast<std::size_t>(to)]);
    return (row(from)[bit >> 6] >> (bit & 63u)) & 1u;
  }

  /// True iff the two targets are ordered either way (a happens-before
  /// b or b happens-before a). a == b counts as ordered.
  bool ordered(int a, int b) const {
    return a == b || reaches(a, b) || reaches(b, a);
  }

 private:
  const std::uint64_t* row(int t) const {
    return bits_.data() +
           static_cast<std::size_t>(index_[static_cast<std::size_t>(t)]) *
               words_;
  }

  std::size_t words_ = 0;
  std::vector<int> index_;            ///< node -> target row, -1 if none
  std::vector<std::uint64_t> bits_;   ///< one m-bit row per target
};

}  // namespace sstar::analysis
