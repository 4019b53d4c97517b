// Iterative refinement on top of the S* factorization.
//
// The static scheme factors in working precision with partial pivoting,
// so GEPP backward stability applies; refinement then drives the
// residual of badly-conditioned systems (several suite replicas are
// deliberately near the edge) down to working accuracy at the cost of
// one sparse mat-vec plus one triangular solve per sweep. The paper
// leaves solve quality implicit; this is the standard companion any
// production LU ships with.
#pragma once

#include <vector>

#include "serve/session.hpp"
#include "solve/solver.hpp"

namespace sstar {

/// Component-wise relative backward error max_i |r_i| / (|A||x| + |b|)_i
/// (Oettli–Prager) of an approximate solution x with residual
/// r = b - Ax. The refinement stopping criterion, exposed for the
/// stability monitor (solve/stability.hpp) so its residual gate is the
/// same arithmetic refinement converges against.
double componentwise_backward_error(const SparseMatrix& a,
                                    const std::vector<double>& x,
                                    const std::vector<double>& b,
                                    const std::vector<double>& r);

struct RefineOptions {
  int max_iterations = 5;
  /// Stop once the component-wise relative backward error
  /// max_i |r_i| / (|A| |x| + |b|)_i drops below this.
  double tolerance = 1e-14;
};

struct RefineResult {
  std::vector<double> x;
  int iterations = 0;          ///< refinement sweeps actually performed
  double backward_error = 0.0; ///< final backward error estimate
  bool converged = false;
};

/// Solve A x = b with iterative refinement. `solver` must be factorized
/// and `a` must be the ORIGINAL matrix the solver was built from.
RefineResult refined_solve(const Solver& solver, const SparseMatrix& a,
                           const std::vector<double>& b,
                           const RefineOptions& opt = {});

/// Multi-RHS refinement through a serving session (serve/session.hpp):
/// per-column diagnostics over a column-major n x nrhs panel.
struct RefineMultiResult {
  std::vector<double> x;               ///< column-major n x nrhs solution
  std::vector<int> iterations;         ///< per column: sweeps performed
  std::vector<double> backward_error;  ///< per column: final estimate
  std::vector<bool> converged;         ///< per column
};

/// Solve A X = B with iterative refinement, sweeping all still-active
/// columns through the factor as one panel per iteration. refined_solve
/// is the nrhs == 1 case of the same loop, and the session's panel
/// solves are per-column bitwise equal to Solver::solve, so column c of
/// the result is BITWISE identical to refined_solve(solver, a, B[:,c],
/// opt) on the session's wrapped solver.
RefineMultiResult refined_solve_multi(serve::SolveSession& session,
                                      const SparseMatrix& a,
                                      const std::vector<double>& b, int nrhs,
                                      const RefineOptions& opt = {});

}  // namespace sstar
