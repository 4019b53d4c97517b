#include "solve/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "exec/lu_real.hpp"
#include "matrix/pattern_ops.hpp"
#include "ordering/etree.hpp"
#include "ordering/min_degree.hpp"
#include "ordering/nested_dissection.hpp"
#include "ordering/rcm.hpp"
#include "ordering/transversal.hpp"
#include "supernode/partition.hpp"
#include "util/check.hpp"

namespace sstar {

SolverSetup prepare(const SparseMatrix& a, const SolverOptions& opt) {
  SSTAR_CHECK(a.rows() == a.cols());
  SSTAR_CHECK(opt.max_block >= 1);
  const int n = a.rows();
  // Reject NaN and Inf here, in the caller's numbering: past this point
  // they surface as a singular pivot at a permuted column, or pass
  // silently into x.
  for (int j = 0; j < n; ++j)
    for (int k = a.col_begin(j); k < a.col_end(j); ++k)
      SSTAR_CHECK_MSG(std::isfinite(a.values()[k]),
                      "non-finite entry " << a.values()[k] << " at (row "
                                          << a.row_idx()[k] << ", col " << j
                                          << ")");

  SolverSetup setup;
  // 0. Optional equilibration: rows to unit max magnitude, then columns.
  //    The scales come from A and are applied to the one permuted copy
  //    made below, so A itself is never copied.
  if (opt.equilibrate) {
    // A scale is 1 / max (empty rows and columns keep scale 1), with the
    // max clamped into [DBL_MIN, 1 / DBL_MIN] first, as LAPACK's dgeequ
    // does: 1 / a subnormal max would overflow to inf, and inf times a
    // zero column scale is NaN.
    const auto invert = [](double& s) {
      constexpr double kSmall = std::numeric_limits<double>::min();
      s = s > 0.0 ? 1.0 / std::clamp(s, kSmall, 1.0 / kSmall) : 1.0;
    };
    // Row scales: 1 / max |row|.
    setup.row_scale.assign(static_cast<std::size_t>(n), 0.0);
    for (int j = 0; j < n; ++j)
      for (int k = a.col_begin(j); k < a.col_end(j); ++k)
        setup.row_scale[a.row_idx()[k]] =
            std::max(setup.row_scale[a.row_idx()[k]],
                     std::fabs(a.values()[k]));
    std::for_each(setup.row_scale.begin(), setup.row_scale.end(), invert);

    // Column scales on the row-scaled matrix.
    setup.col_scale.assign(static_cast<std::size_t>(n), 0.0);
    for (int j = 0; j < n; ++j)
      for (int k = a.col_begin(j); k < a.col_end(j); ++k)
        setup.col_scale[j] =
            std::max(setup.col_scale[j],
                     std::fabs(a.values()[k]) *
                         setup.row_scale[a.row_idx()[k]]);
    std::for_each(setup.col_scale.begin(), setup.col_scale.end(), invert);
  }

  // 1. Row transversal for a zero-free diagonal (fails typed on a
  //    structurally singular matrix).
  const std::vector<int> rowt = zero_free_diagonal_rows(a);

  // 2. Fill-reducing column ordering q, applied to the rows after the
  //    transversal too, so the zero-free diagonal is preserved (the paper
  //    orders by minimum degree on AᵀA). AᵀA ignores row order, so it is
  //    A's own; only RCM's A + Aᵀ sees the transversal.
  std::vector<int> q(n);
  std::iota(q.begin(), q.end(), 0);
  switch (opt.ordering) {
    case SolverOptions::Ordering::kMinDegreeAtA:
      q = min_degree_order(ata_pattern(a));
      break;
    case SolverOptions::Ordering::kNestedDissection:
      q = nested_dissection_order(ata_pattern(a));
      break;
    case SolverOptions::Ordering::kRcm:
      q = rcm_order(aplusat_pattern(a.permuted(rowt, {})));
      break;
    case SolverOptions::Ordering::kNatural:
      break;
  }
  if (opt.ordering != SolverOptions::Ordering::kNatural) {
    // Postorder the column elimination tree (the etree of AᵀA) under q:
    // equivalent fill, but parents immediately follow their children,
    // which is what lets supernodes grow and amalgamation (§3.3) find
    // its consecutive merge candidates. The tree comes from A itself.
    const std::vector<int> post = postorder(column_elimination_tree(a, q));
    std::vector<int> composed(n);
    for (int i = 0; i < n; ++i) composed[i] = q[post[i]];
    q = std::move(composed);
  }

  // Composite permutations back to the original numbering, applied to A
  // in one permute, then the equilibration scales.
  setup.row_perm.resize(n);
  for (int i = 0; i < n; ++i) setup.row_perm[i] = rowt[q[i]];
  setup.col_perm = std::move(q);
  setup.permuted = a.permuted(setup.row_perm, setup.col_perm);
  if (opt.equilibrate) {
    // One multiply by the two scales' product; where the product
    // overflows (a clamped subnormal row max), one multiply by each.
    SparseMatrix& p = setup.permuted;
    for (int j = 0; j < n; ++j) {
      const double cs = setup.col_scale[setup.col_perm[j]];
      for (int k = p.col_begin(j); k < p.col_end(j); ++k) {
        const double rs = setup.row_scale[setup.row_perm[p.row_idx()[k]]];
        double& v = p.values()[k];
        v = std::isfinite(rs * cs) ? v * (rs * cs) : v * rs * cs;
      }
    }
  }

  // 3. Static symbolic factorization + 2D L/U supernode partitioning.
  setup.structure = static_symbolic_factorization(setup.permuted);
  SupernodePartition part = find_supernodes(setup.structure, opt.max_block);
  setup.presplit_avg_width = part.average_width();
  part = amalgamate(setup.structure, part, opt.amalgamation, opt.max_block);
  setup.layout = std::make_unique<BlockLayout>(setup.structure,
                                               std::move(part));
  return setup;
}

Solver::Solver(const SparseMatrix& a, SolverOptions opt)
    : opt_(opt),
      setup_(prepare(a, opt)),
      numeric_(*setup_.layout),
      graph_(*setup_.layout) {
  numeric_.set_pivot_policy(opt.pivot);
  numeric_.assemble(setup_.permuted);
}

void Solver::factorize() {
  factorized_ = false;  // a failed factorization leaves none to solve with
  try {
    exec::factorize_parallel(graph_, numeric_);
  } catch (const PivotError& e) {
    // factor_block names the permuted column; the caller's is col_perm's.
    throw PivotError(e.pivot(), setup_.col_perm[e.column()], e.cause());
  }
  factorized_ = true;
}

void Solver::refactorize(const PivotPolicy& policy) {
  opt_.pivot = policy;
  numeric_.set_pivot_policy(policy);
  numeric_.assemble(setup_.permuted);  // re-load values, reset pivots
  factorize();
}

std::vector<double> solve_in_panels(const SolverSetup& setup,
                                    const std::vector<double>& b, int nrhs,
                                    bool transpose, int panel_width,
                                    std::vector<double>& panel,
                                    const std::function<void(int)>& sweep) {
  const std::size_t n = setup.row_perm.size();
  SSTAR_CHECK(nrhs >= 0 && panel_width >= 1);
  SSTAR_CHECK(b.size() == n * static_cast<std::size_t>(nrhs));
  // Reject NaN and Inf before any sweep, by their (row, col) in b: past
  // this point they spread through the sweep into x.
  const auto bad = std::find_if(b.begin(), b.end(),
                                [](double v) { return !std::isfinite(v); });
  SSTAR_CHECK_MSG(bad == b.end(),
                  "non-finite right-hand side entry "
                      << *bad << " at (row " << (bad - b.begin()) % n
                      << ", col " << (bad - b.begin()) / n << ")");
  const auto& in_perm = transpose ? setup.col_perm : setup.row_perm;
  const auto& in_scale = transpose ? setup.col_scale : setup.row_scale;
  const auto& out_perm = transpose ? setup.row_perm : setup.col_perm;
  const auto& out_scale = transpose ? setup.row_scale : setup.col_scale;
  const bool eq = !in_scale.empty();
  std::vector<double> x(b.size());
  for (int c0 = 0; c0 < nrhs; c0 += panel_width) {
    const std::size_t w = static_cast<std::size_t>(
        std::min(panel_width, nrhs - c0));
    const double* bc = b.data() + static_cast<std::size_t>(c0) * n;
    double* xc = x.data() + static_cast<std::size_t>(c0) * n;
    panel.resize(n * w);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t orig = static_cast<std::size_t>(in_perm[i]);
      for (std::size_t c = 0; c < w; ++c) {
        const double v = bc[c * n + orig];
        panel[i * w + c] = eq ? v * in_scale[orig] : v;
      }
    }
    sweep(static_cast<int>(w));
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t orig = static_cast<std::size_t>(out_perm[i]);
      for (std::size_t c = 0; c < w; ++c) {
        const double v = panel[i * w + c];
        xc[c * n + orig] = eq ? v * out_scale[orig] : v;
      }
    }
  }
  return x;
}

std::vector<double> Solver::solve_columns(const std::vector<double>& b,
                                          int nrhs, bool transpose) const {
  SSTAR_CHECK_MSG(factorized_, "solve before factorize()");
  std::vector<double> panel;
  return solve_in_panels(setup_, b, nrhs, transpose, std::max(nrhs, 1), panel,
                         [&](int ncols) {
                           numeric_.solve_panel(panel.data(), ncols,
                                                transpose);
                         });
}

std::vector<double> Solver::solve(const std::vector<double>& b) const {
  return solve_columns(b, 1, /*transpose=*/false);
}

std::vector<double> Solver::solve_transpose(
    const std::vector<double>& b) const {
  return solve_columns(b, 1, /*transpose=*/true);
}

std::vector<double> Solver::solve_multi(const std::vector<double>& b,
                                        int nrhs) const {
  return solve_columns(b, nrhs, /*transpose=*/false);
}

std::vector<double> Solver::solve_transpose_multi(
    const std::vector<double>& b, int nrhs) const {
  return solve_columns(b, nrhs, /*transpose=*/true);
}

}  // namespace sstar
