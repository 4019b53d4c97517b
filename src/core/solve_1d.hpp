// Distributed triangular solves on the simulated machine.
//
// The paper factors in parallel and notes (§2) that the two triangular
// solves are far cheaper than the elimination; a production solver still
// has to run them where the factors live. This driver prices
// Ly = Pb / Ux = y as per-supernode tasks under the 1D cyclic mapping,
// with dependences taken from the shared solve DAG (core/solve_graph):
// per-row-block forward writer chains, FS(k) -> BS(k), and BS(k) on
// BS(j) for every nonzero U block (k, j). Messages carry the
// accumulated partial sums for the target block's rows. It is timing
// only: the serving layer (serve::SolveSession) executes the same
// SolveGraph on real threads, bitwise equal to numeric.solve().
#pragma once

#include "core/numeric.hpp"
#include "core/parallel_run.hpp"
#include "sim/event_sim.hpp"

namespace sstar {

/// Simulate the distributed solve of a factorized `numeric`.
ParallelRunResult run_solve_1d(const SStarNumeric& numeric,
                               const sim::MachineModel& machine);

}  // namespace sstar
