#include "solve/refine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace sstar {

namespace {

// Component-wise backward error max_i |r_i| / (|A||x| + |b|)_i (Oettli–
// Prager) of one column, the standard refinement stopping criterion.
// +inf when an entry of x or r is not finite: there the quotient would
// be inf/inf = NaN, which std::max drops.
double backward_error_col(const SparseMatrix& a, const double* x,
                          const double* b, const double* r) {
  const int n = a.rows();
  for (int i = 0; i < n; ++i)
    if (!std::isfinite(x[i]) || !std::isfinite(r[i]))
      return std::numeric_limits<double>::infinity();
  std::vector<double> denom(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) denom[i] = std::fabs(b[i]);
  for (int j = 0; j < a.cols(); ++j) {
    const double xj = std::fabs(x[j]);
    if (xj == 0.0) continue;
    for (int k = a.col_begin(j); k < a.col_end(j); ++k)
      denom[a.row_idx()[k]] += std::fabs(a.values()[k]) * xj;
  }
  double e = 0.0;
  for (int i = 0; i < n; ++i) {
    if (r[i] == 0.0) continue;
    // A zero denominator with a nonzero residual means an exactly-zero
    // row contribution; report infinity-like error via a huge value.
    e = std::max(e, denom[i] > 0.0 ? std::fabs(r[i]) / denom[i] : 1e300);
  }
  return e;
}

// One column of A x in EXACTLY SparseMatrix::multiply's element order
// (j ascending, skip x_j == 0, scattered adds).
void multiply_column(const SparseMatrix& a, const double* x, double* y) {
  for (int i = 0; i < a.rows(); ++i) y[i] = 0.0;
  for (int j = 0; j < a.cols(); ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    for (int k = a.col_begin(j); k < a.col_end(j); ++k)
      y[a.row_idx()[k]] += a.values()[k] * xj;
  }
}

// The refinement loop over column-major n x nrhs right-hand sides.
// `solve(panel, ncols)` solves ncols columns as one panel; every
// still-unconverged column sweeps the factor in ONE panel per
// iteration, and columns drop out as they converge, or unconverged
// when their backward error is infinite (a non-finite x or residual
// cannot be corrected, and the solve would reject it). Parameterized over
// the panel solve so the Solver and SolveSession entry points share one
// body; refined_solve is its nrhs == 1 case.
template <typename SolveFn>
RefineMultiResult refine(const SparseMatrix& a, const std::vector<double>& b,
                         int nrhs, const RefineOptions& opt, SolveFn&& solve) {
  SSTAR_CHECK(a.rows() == a.cols());
  SSTAR_CHECK(nrhs >= 0);
  const int n = a.rows();
  SSTAR_CHECK(b.size() ==
              static_cast<std::size_t>(n) * static_cast<std::size_t>(nrhs));

  RefineMultiResult out;
  out.x = solve(b, nrhs);
  out.iterations.assign(static_cast<std::size_t>(nrhs), 0);
  out.backward_error.assign(static_cast<std::size_t>(nrhs), 0.0);
  out.converged.assign(static_cast<std::size_t>(nrhs), false);

  std::vector<int> active(static_cast<std::size_t>(nrhs));
  for (int c = 0; c < nrhs; ++c) active[static_cast<std::size_t>(c)] = c;
  std::vector<double> r(b.size());
  std::vector<double> ax(static_cast<std::size_t>(n));
  std::vector<double> rpanel;
  for (int iter = 0; iter <= opt.max_iterations && !active.empty(); ++iter) {
    std::vector<int> still;
    for (const int c : active) {
      const double* bc = b.data() + static_cast<std::ptrdiff_t>(c) * n;
      double* xc = out.x.data() + static_cast<std::ptrdiff_t>(c) * n;
      double* rc = r.data() + static_cast<std::ptrdiff_t>(c) * n;
      multiply_column(a, xc, ax.data());
      for (int i = 0; i < n; ++i) rc[i] = bc[i] - ax[i];
      out.iterations[static_cast<std::size_t>(c)] = iter;
      const double e = backward_error_col(a, xc, bc, rc);
      out.backward_error[static_cast<std::size_t>(c)] = e;
      if (e <= opt.tolerance)
        out.converged[static_cast<std::size_t>(c)] = true;
      else if (std::isfinite(e))
        still.push_back(c);
    }
    active = std::move(still);
    if (iter == opt.max_iterations || active.empty()) break;
    const int na = static_cast<int>(active.size());
    rpanel.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(na));
    for (int q = 0; q < na; ++q)
      std::copy_n(r.data() + static_cast<std::ptrdiff_t>(active[q]) * n, n,
                  rpanel.data() + static_cast<std::ptrdiff_t>(q) * n);
    const std::vector<double> dx = solve(rpanel, na);
    for (int q = 0; q < na; ++q) {
      double* xc = out.x.data() + static_cast<std::ptrdiff_t>(active[q]) * n;
      const double* dc = dx.data() + static_cast<std::ptrdiff_t>(q) * n;
      for (int i = 0; i < n; ++i) xc[i] += dc[i];
    }
  }
  return out;
}

}  // namespace

double componentwise_backward_error(const SparseMatrix& a,
                                    const std::vector<double>& x,
                                    const std::vector<double>& b,
                                    const std::vector<double>& r) {
  const std::size_t n = static_cast<std::size_t>(a.rows());
  SSTAR_CHECK(x.size() == n && b.size() == n && r.size() == n);
  return backward_error_col(a, x.data(), b.data(), r.data());
}

RefineResult refined_solve(const Solver& solver, const SparseMatrix& a,
                           const std::vector<double>& b,
                           const RefineOptions& opt) {
  SSTAR_CHECK(solver.factorized());
  RefineMultiResult m =
      refine(a, b, 1, opt, [&](const std::vector<double>& v, int ncols) {
        return solver.solve_multi(v, ncols);
      });
  return {std::move(m.x), m.iterations[0], m.backward_error[0],
          m.converged[0]};
}

RefineMultiResult refined_solve_multi(serve::SolveSession& session,
                                      const SparseMatrix& a,
                                      const std::vector<double>& b, int nrhs,
                                      const RefineOptions& opt) {
  return refine(a, b, nrhs, opt,
                [&](const std::vector<double>& v, int ncols) {
                  return session.solve_multi(v, ncols);
                });
}

}  // namespace sstar
