// The dependence auditor: prove the LU task DAG orders every pair of
// conflicting block accesses.
//
// PR 1's executor is correct only if the Factor/Update DAG built in
// core/task_graph.* carries a happens-before edge path between every two
// tasks that touch the same block with at least one write. TSan catches
// violations probabilistically, at whatever interleavings the host
// schedules; this module checks the property DETERMINISTICALLY from the
// task model alone:
//
//  * static mode — derive each task's declared read/write block set
//    (analysis/access_sets.hpp), materialize the DAG's reachability
//    (analysis/reachability.hpp), and report every conflicting pair not
//    ordered by an edge path, with task ids, block coordinates, and the
//    missing edge that would repair it;
//  * dynamic mode — with -DSSTAR_AUDIT=ON the kernels log actual
//    (task, block, access) events (analysis/access_log.hpp);
//    check_recorded_accesses() validates each event against the
//    declared sets (under-declaration) and re-runs the ordering check on
//    the events that really happened (missed edges on real accesses).
//
// One ordered-conflict sweep serves three task models: the kernel-level
// LuTaskGraph, built SPMD programs (the 1D/2D drivers'
// sim::ParallelProgram, whose tasks carry LuTask kernel descriptors), and
// the serving layer's solve DAG (core/solve_graph, whose tasks declare
// right-hand-side row-block accesses). The CLI wrappers are
// tools/sstar_audit and tools/sstar_serve --audit.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/access_log.hpp"
#include "analysis/access_sets.hpp"
#include "core/solve_graph.hpp"
#include "core/task_graph.hpp"
#include "sim/event_sim.hpp"

namespace sstar::analysis {

/// A conflicting access pair no dependence path orders. task_a < task_b,
/// and task ids are the audited model's sequential order — creation
/// order, or the sweep order for the solve DAG — so the minimal repair
/// is an edge a -> b.
struct AuditViolation {
  int task_a = 0;
  int task_b = 0;
  std::string label_a;
  std::string label_b;
  BlockCoord block;
  Access access_a = Access::kRead;
  Access access_b = Access::kRead;

  /// Human-readable diagnostic, e.g.
  /// "U(2,5) [task 14] and U(3,5) [task 19] both access L(7,5)
  ///  (write/write) with no ordering path; missing edge 14 -> 19".
  std::string message() const;
};

struct AuditReport {
  int num_tasks = 0;
  std::int64_t num_edges = 0;
  int num_resources = 0;            ///< distinct blocks/pivot sequences
  std::int64_t pairs_checked = 0;   ///< conflicting pairs examined
  std::int64_t violations_found = 0;///< == violations.size()
  std::vector<AuditViolation> violations;  ///< every unordered pair

  bool ok() const { return violations_found == 0; }
  std::string summary() const;
};

/// Audit the kernel-level LU task DAG.
AuditReport audit_task_graph(const LuTaskGraph& graph);

/// Same, with an explicit edge list replacing graph.edges() — the
/// negative tests delete edges and assert the auditor flags the exact
/// (task pair, block) that lost its ordering.
AuditReport audit_task_graph(const LuTaskGraph& graph,
                             const std::vector<LuTaskEdge>& edges);

/// Audit a built SPMD program: the happens-before relation is program
/// order per virtual processor plus every message/dependency edge;
/// access sets come from each task's LuTask kernels.
AuditReport audit_program(const sim::ParallelProgram& prog,
                          const BlockLayout& layout);

/// Audit the solve DAG: each task's row-block accesses
/// (SolveGraph::access_set) become BlockCoord::kSolveRows resources.
/// Task ids are the sweep order FS(0..nb-1), BS(nb-1..0), so
/// task_a -> task_b is the edge a sequential replay would need.
AuditReport audit_solve_graph(const SolveGraph& graph);

/// Same, with an explicit edge list replacing graph.edges() — the
/// deleted-edge negative tests' seam.
AuditReport audit_solve_graph(const SolveGraph& graph,
                              const std::vector<std::pair<int, int>>& edges);

// --- dynamic mode (offline checker for recorded events) -----------------

/// One recorded access outside its task's declared set.
struct UndeclaredAccess {
  int task = -1;
  std::string label;
  BlockCoord block;
  Access access = Access::kRead;

  std::string message() const;
};

struct DynamicAuditReport {
  std::int64_t events = 0;          ///< events checked
  std::vector<UndeclaredAccess> undeclared;
  std::vector<AuditViolation> unordered;  ///< conflicts among real accesses

  bool ok() const { return undeclared.empty() && unordered.empty(); }
  std::string summary() const;
};

/// Cross-validate events recorded during a factorize_parallel() run
/// against the graph's declared sets and ordering.
DynamicAuditReport check_recorded_accesses(
    const LuTaskGraph& graph, const std::vector<AccessEvent>& events);

/// Same for an MP run (event task ids are the program's task ids).
DynamicAuditReport check_recorded_accesses(
    const sim::ParallelProgram& prog, const BlockLayout& layout,
    const std::vector<AccessEvent>& events);

}  // namespace sstar::analysis
