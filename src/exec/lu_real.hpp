// Real-thread execution of the LU task DAG (§4.1).
//
// factorize_parallel() runs Factor(k) / Update(k, j) straight from the
// LuTaskGraph on run_dag workers. Because the graph already serializes
// consecutive updates of the same column block (property 3) and tasks
// targeting different column blocks write disjoint storage, EVERY
// dependency-respecting execution — any thread count, any steal pattern
// — performs the identical kernel sequence per column and therefore
// produces bitwise-identical factors to SStarNumeric::factorize().
// factors_bitwise_equal() checks exactly that; tests enforce it.
//
// Affinity hints: every task targeting column block j prefers worker
// j mod threads, the same worker at every stage k (property-3 locality).
// Since LuTaskGraph numbers its tasks in the sequential loop's order,
// run_dag's error rule makes a failing factorization throw the loop's
// PivotError at every thread count.
//
// Built 1D/2D programs (core/lu_1d, core/lu_2d) run on the
// message-passing ranks of exec/lu_mp; both executors run kernels
// through the one dispatch run_lu_task().
#pragma once

#include "core/numeric.hpp"
#include "core/task_graph.hpp"
#include "exec/executor.hpp"

namespace sstar::exec {

/// The one kernel dispatch every executor shares: Factor(k) runs
/// factor_block(k); Update(k, j) runs scale_swap(k, j), update_block(k,
/// j) and then tells the store one use of panel k is done
/// (BlockStore::on_panel_consumed). SStarNumeric::factorize() keeps its
/// own sequential loop as the bitwise reference.
void run_lu_task(SStarNumeric& numeric, const LuTask& task);

/// Factor `numeric` (already assembled) by executing `graph`, its
/// layout's task DAG, on `threads` workers (0 = default_thread_count()).
/// Solver::factorize() runs this at the default count.
ExecStats factorize_parallel(const LuTaskGraph& graph, SStarNumeric& numeric,
                             int threads = 0);

/// Same, building the LuTaskGraph internally.
ExecStats factorize_parallel(SStarNumeric& numeric, int threads = 0);

/// True iff the two factorizations hold bit-for-bit identical values:
/// same pivot sequence, same diagonal blocks, same L and U panels. The
/// layouts must be the same object or structurally equal.
bool factors_bitwise_equal(const SStarNumeric& a, const SStarNumeric& b);

}  // namespace sstar::exec
