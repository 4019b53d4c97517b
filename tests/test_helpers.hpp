// Shared fixtures and utilities for the S* test suite.
#pragma once

#include <cstdint>
#include <vector>

#include "baseline/dense_lu.hpp"
#include "blas/kernel_backend.hpp"
#include "matrix/sparse.hpp"

namespace sstar::testing {

/// Effective seed for randomized fixtures. Returns `default_seed`
/// unchanged unless the SSTAR_TEST_SEED environment variable is set to
/// a nonzero integer, in which case the two are mixed (splitmix64) —
/// every randomized fixture re-rolls deterministically per environment
/// seed without code changes. random_sparse() and random_vector()
/// route their seeds through this, and a test listener prints the
/// active environment seed whenever a test fails.
std::uint64_t test_seed(std::uint64_t default_seed);

/// A small random sparse nonsingular matrix with a zero-free diagonal,
/// `extra` random off-diagonals per column, and a fraction of weak
/// diagonal rows so partial pivoting is exercised.
SparseMatrix random_sparse(int n, int extra_per_col, std::uint64_t seed,
                           double weak_diag_fraction = 0.2);

/// A small random dense-ish vector.
std::vector<double> random_vector(int n, std::uint64_t seed);

/// ||a - b||_inf.
double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b);

/// Relative residual ||Ax - b||_inf / (||A||_max * ||x||_inf + ||b||_inf).
double solve_residual(const SparseMatrix& a, const std::vector<double>& x,
                      const std::vector<double>& b);

/// The paper's Fig. 2 five-by-five example pattern (values filled with a
/// simple nonsingular assignment).
SparseMatrix paper_fig2_matrix();

/// The paper's Fig. 4 seven-by-seven supernode-partition example.
SparseMatrix paper_fig4_matrix();

/// Restores the process-wide backend selection on scope exit, so tests
/// that force a backend cannot leak it into the rest of the suite.
struct BackendGuard {
  blas::KernelBackend saved = blas::active_kernel_backend();
  ~BackendGuard() { blas::set_kernel_backend(saved); }
};

}  // namespace sstar::testing
