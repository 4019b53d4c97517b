// Declared per-task block access sets of the LU task model (§4.1).
//
// Every Factor(k) / combined ScaleSwap+Update(k, j) kernel touches a
// statically known set of resources: blocks of the N x N block grid
// (i > j: L block, i == j: diagonal block, i < j: U block) plus the
// per-supernode pivot sequences. The sets depend only on the block
// layout — never on numerical values — because partial pivoting is
// confined to the candidate rows the static structure guarantees
// (Theorem 1): a pivot row chosen at stage k always lives in block k's
// diagonal block or L panel, so the blocks ScaleSwap(k, j) may touch are
// exactly {(i, j) : i = k or i a row block of l_blocks(k)}.
//
// That confinement is PIVOT-POLICY independent. Threshold pivoting
// (core/pivot.hpp) changes which candidate row Factor(k) keeps — it
// never changes the candidate set, which is fixed by the static
// structure. So one declared access set, one task DAG, and one message
// plan cover every PivotPolicy; the audits below apply verbatim to
// relaxed-threshold runs (tests/test_pivot.cpp, PivotAudit.*, proves
// this, and the serializer's apply-side check pinpoints any panel that
// would violate it regardless of the sender's policy).
//
// These declared sets are the contract the dependence auditor
// (analysis/audit.hpp) verifies: the task DAG must order every pair of
// tasks whose sets conflict (W/W or R/W on the same resource), and the
// dynamic access log (analysis/access_log.hpp) cross-checks that the
// kernels never touch a block outside their declared set.
#pragma once

#include <string>
#include <vector>

#include "analysis/access_types.hpp"
#include "core/task_graph.hpp"
#include "sim/event_sim.hpp"
#include "supernode/block_layout.hpp"

namespace sstar::analysis {

/// Resources Factor(k) touches: W diag(k), W every L block (i, k), and
/// W piv(k). (Reads of the same storage are subsumed by the writes.)
std::vector<BlockAccess> factor_access_set(const BlockLayout& lay, int k);

/// Resources the combined ScaleSwap(k, j) + Update(k, j) task touches:
/// R piv(k), R diag(k), R every L block (i, k); W the U block (k, j)
/// (DTRSM target and the pivot-position rows ScaleSwap may swap), and W
/// every structurally present target block (i, j) for i a row block of
/// l_blocks(k) — diag(j) if i == j, U(i, j) if i < j, L(i, j) if i > j.
std::vector<BlockAccess> update_access_set(const BlockLayout& lay, int k,
                                           int j);

/// Declared access set of one kernel (dispatches on the task's type to
/// the two derivations above).
std::vector<BlockAccess> kernel_access_set(const BlockLayout& lay,
                                           const LuTask& task);

/// Declared access set of task t of the kernel-level DAG.
std::vector<BlockAccess> task_access_set(const LuTaskGraph& graph, int t);

/// Display label of task t: "F(3)" or "U(3,7)".
std::string task_label(const LuTaskGraph& graph, int t);

/// Declared access set of task t of a built SPMD program: the union of
/// the sets of its kernels (a resource may repeat).
std::vector<BlockAccess> task_access_set(const sim::ParallelProgram& prog,
                                         const BlockLayout& lay, int t);

/// Display label of program task t: its TaskDef label, else "task 7".
std::string task_label(const sim::ParallelProgram& prog, int t);

}  // namespace sstar::analysis
