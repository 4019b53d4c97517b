// 2D block-cyclic parallel sparse LU (§4.3, §5.2, Figs. 12-15).
//
// Processors form a p_r x p_c grid (proc id = r * p_c + c); block (i, j)
// lives on processor (i mod p_r, j mod p_c). Per elimination step k the
// SPMD program of Fig. 12 expands into per-processor tasks:
//
//   F1(k, r)  — local pivot contributions of processor row r in the
//               owning column (half the Factor work share);
//   FP(k)     — pivot coordination on the owner of L_kk (collects local
//               maxima, serialized pivot rounds charged w*2 latencies);
//   F2(k, r)  — remaining Factor work after the pivot decisions, then
//               the L/pivot multicast along processor row r;
//   SW(k,r,c) — ScaleSwap: delayed row interchange (+ the DTRSM slice on
//               the diagonal processor row, which then multicasts the
//               scaled U panel down its processor column);
//   UF(k,p)   — Update_2D(k, k+1): the compute-ahead update, ordered
//               immediately before the step-(k+1) Factor tasks;
//   UR(k,p)   — Update_2D(k, j) for all remaining j owned by p's column.
//
// The asynchronous variant is exactly this program; the synchronous
// variant adds a barrier between elimination steps (§6.3.1's
// comparison). The LuTask kernels ride on FP (Factor) and on the
// block-owner processor's UF/UR tasks (ScaleSwap+Update); the other
// tasks only model time. run_2d simulates the program, and run_2d_mp
// executes the same program's kernels on message-passing ranks.
#pragma once

#include <vector>

#include "core/numeric.hpp"
#include "core/parallel_run.hpp"
#include "exec/lu_mp.hpp"
#include "sim/event_sim.hpp"

namespace sstar {

/// Build the 2D SPMD program (exposed for tests).
///
/// `offdiag_interchanges`, when non-null, holds per block k the number
/// of columns whose REALIZED pivot left the diagonal (see
/// offdiag_interchanges_per_block). The builder then charges the
/// pivot-dependent communication — FP(k)'s winner-subrow broadcast
/// rounds and SW(k)'s delayed-interchange subrow exchange — per
/// realized interchange instead of per column: a column that kept its
/// diagonal moves no rows, so the owner already holds the pivot row and
/// its column peers have nothing to exchange. Null preserves the
/// historic worst-case charging (every column pays), which is exactly a
/// count vector of width(k) per block. This is how the threshold-
/// pivoting ablation (bench/bench_pivot) prices a PivotPolicy on the
/// paper's machines: relaxed policies keep admissible diagonals in
/// place, and the serialized pivot rounds §4.3 warns about shrink with
/// the realized interchange count.
sim::ParallelProgram build_2d_program(
    const BlockLayout& layout, const sim::MachineModel& machine, bool async,
    const std::vector<int>* offdiag_interchanges = nullptr);

/// Per-block realized off-diagonal interchange counts of a FACTORED
/// numeric: entries m of block k with pivot_of_col()[m] != m. Input for
/// build_2d_program's pivot-dependent communication charging.
std::vector<int> offdiag_interchanges_per_block(const BlockLayout& layout,
                                                const SStarNumeric& numeric);

/// Simulate the 2D code and summarize (timing only).
ParallelRunResult run_2d(const BlockLayout& layout,
                         const sim::MachineModel& machine, bool async = true,
                         bool capture_gantt = false);

/// Message-passing execution (exec/lu_mp): run the SAME 2D SPMD program
/// with one thread per grid position, private numeric replicas, and
/// real factor-panel multicasts (owner -> row leader -> row peers) over
/// an in-process transport. `result` receives the merged factors,
/// bitwise-identical to a sequential factorize().
exec::MpStats run_2d_mp(const BlockLayout& layout,
                        const sim::MachineModel& machine, bool async,
                        const SparseMatrix& a, SStarNumeric& result,
                        const exec::MpOptions& opt = {});

}  // namespace sstar
