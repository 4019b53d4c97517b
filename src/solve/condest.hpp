// 1-norm condition number estimation (Hager/Higham, the LAPACK xLACON
// algorithm) using the factorization's forward and transpose solves.
//
// cond_1(A) = ||A||_1 * ||A^{-1}||_1; the inverse norm is estimated with
// a handful of solves rather than forming A^{-1}. Several of the paper's
// benchmark classes (and their replicas here) are ill-conditioned enough
// that reporting kappa next to a solution is the difference between a
// demo and a solver.
#pragma once

#include "serve/session.hpp"
#include "solve/solver.hpp"

namespace sstar {

struct ConditionEstimate {
  double a_norm1 = 0.0;        ///< ||A||_1 (exact, column sums)
  double inv_norm1 = 0.0;      ///< estimated ||A^{-1}||_1 (lower bound)
  double condition = 0.0;      ///< a_norm1 * inv_norm1
  int solves = 0;              ///< A / Aᵀ solves spent on the estimate
};

/// Estimate cond_1(A). `solver` must be factorized on `a`.
ConditionEstimate estimate_condition(const Solver& solver,
                                     const SparseMatrix& a,
                                     int max_iterations = 5);

/// Same estimate through a serving session: forward solves route
/// through the session's panel sweep, transpose solves through the
/// wrapped solver. BITWISE
/// equal to the Solver overload — session solves reproduce
/// Solver::solve exactly. `a` must be the matrix the session's
/// factorization was built from.
ConditionEstimate estimate_condition(serve::SolveSession& session,
                                     const SparseMatrix& a,
                                     int max_iterations = 5);

}  // namespace sstar
