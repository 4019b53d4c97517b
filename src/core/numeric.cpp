#include "core/numeric.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/access_log.hpp"
#include "blas/dense_blas.hpp"
#include "core/task_model.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace sstar {

namespace {

std::string pivot_message(double pivot, int column, PivotError::Cause cause) {
  std::ostringstream os;
  if (cause == PivotError::Cause::kOverflow)
    os << "factor entry overflowed to " << pivot << " at column " << column;
  else if (std::isfinite(pivot))
    os << "matrix is numerically singular at column " << column;
  else
    os << "non-finite pivot " << pivot << " at column " << column;
  return os.str();
}

// Throw the overflow PivotError for the first non-finite x[i], if any.
void check_finite(const double* x, int n, int column) {
  for (int i = 0; i < n; ++i)
    if (!std::isfinite(x[i]))
      throw PivotError(x[i], column, PivotError::Cause::kOverflow);
}

}  // namespace

PivotError::PivotError(double pivot, int column, Cause cause)
    : CheckError(pivot_message(pivot, column, cause)),
      pivot_(pivot),
      column_(column),
      cause_(cause) {}

SStarNumeric::SStarNumeric(const BlockLayout& layout)
    : SStarNumeric(layout, std::make_unique<PackedBlockStore>(layout)) {}

SStarNumeric::SStarNumeric(const BlockLayout& layout,
                           std::unique_ptr<BlockStore> store)
    : layout_(&layout), store_(std::move(store)) {
  SSTAR_CHECK_MSG(store_ != nullptr && &store_->layout() == &layout,
                  "SStarNumeric: store must be built on the same layout");
  pivot_of_col_.assign(static_cast<std::size_t>(layout.n()), -1);
  pivot_mag_.assign(static_cast<std::size_t>(layout.n()), 0.0);
  pivot_colmax_.assign(static_cast<std::size_t>(layout.n()), 0.0);
  factored_.assign(static_cast<std::size_t>(layout.num_blocks()), 0);
}

void SStarNumeric::assemble(const SparseMatrix& a) {
  store_->assemble(a);
  std::fill(pivot_of_col_.begin(), pivot_of_col_.end(), -1);
  std::fill(pivot_mag_.begin(), pivot_mag_.end(), 0.0);
  std::fill(pivot_colmax_.begin(), pivot_colmax_.end(), 0.0);
  std::fill(factored_.begin(), factored_.end(), 0);
  stats_ = FactorStats{};
  stats_.input_max_abs = a.max_abs();
}

void SStarNumeric::set_pivot_policy(const PivotPolicy& policy) {
  SSTAR_CHECK_MSG(policy.valid(), "pivot threshold " << policy.threshold
                                                     << " outside (0, 1]");
  policy_ = policy;
}

double SStarNumeric::pivot_ratio() const {
  double ratio = 1.0;
  for (std::size_t m = 0; m < pivot_mag_.size(); ++m) {
    if (pivot_of_col_[m] < 0 || pivot_mag_[m] <= 0.0) continue;
    ratio = std::max(ratio, pivot_colmax_[m] / pivot_mag_[m]);
  }
  return ratio;
}

double SStarNumeric::growth_factor() const {
  const BlockLayout& lay = *layout_;
  double umax = 0.0;
  for (int k = 0; k < lay.num_blocks(); ++k) {
    const int w = lay.width(k);
    const double* d = store_->diag(k);
    for (int c = 0; c < w; ++c)
      for (int r = 0; r <= c; ++r)
        umax = std::max(umax, std::fabs(d[static_cast<std::ptrdiff_t>(c) * w + r]));
    const double* u = store_->u_panel(k);
    const std::int64_t ucount =
        static_cast<std::int64_t>(lay.panel_cols(k).size()) * w;
    for (std::int64_t i = 0; i < ucount; ++i)
      umax = std::max(umax, std::fabs(u[i]));
  }
  return stats_.input_max_abs > 0.0 ? umax / stats_.input_max_abs : 0.0;
}

void SStarNumeric::factor_block(int k) {
  const BlockLayout& lay = *layout_;
  const int w = lay.width(k);
  const int nr = store_->l_ld(k);
  const blas::FlopCount flops = factor_flops(w, nr);
  const trace::KernelSpan trace_span(trace::EventKind::kFactor, k, k,
                                     flops.total());
#ifdef SSTAR_AUDIT_ENABLED
  SSTAR_AUDIT_RECORD(k, analysis::BlockCoord::kPivotSeq,
                     analysis::Access::kWrite);
  SSTAR_AUDIT_RECORD(k, k, analysis::Access::kWrite);
  for (const BlockRef& lref : lay.l_blocks(k))
    SSTAR_AUDIT_RECORD(lref.block, k, analysis::Access::kWrite);
#endif
  const int base = lay.start(k);
  double* d = store_->diag(k);
  double* p = store_->l_panel(k);
  const auto& prows = lay.panel_rows(k);
  int off_diagonal_pivots = 0;
  int relaxed_pivots = 0;

  for (int ml = 0; ml < w; ++ml) {
    double* cd = d + static_cast<std::ptrdiff_t>(ml) * w;
    double* cp = p + static_cast<std::ptrdiff_t>(ml) * nr;

    // Pivot search over the diagonal block (rows ml..w-1) and the whole
    // L panel column — exactly the candidate set the static structure
    // guarantees.
    int best_diag = ml + blas::idamax(w - ml, cd + ml);
    double best = std::fabs(cd[best_diag]);
    int best_panel = -1;
    if (nr > 0) {
      const int bp = blas::idamax(nr, cp);
      const double panel_best = std::fabs(cp[bp]);
      if (panel_best > best || std::isnan(panel_best)) {
        best = panel_best;
        best_panel = bp;
      }
    }
    // idamax lets a NaN win, so a non-finite candidate anywhere in the
    // column surfaces here rather than as garbage downstream.
    if (!std::isfinite(best) || best == 0.0) throw PivotError(best, base + ml);

    const int m = base + ml;
    int t = best_panel >= 0 ? prows[best_panel]
                            : base + best_diag;
    double chosen = best;
    // Threshold pivoting (core/pivot.hpp): keep the DIAGONAL position
    // when it is admissible — the column then needs no interchange here
    // and every downstream ScaleSwap(k, j) skips it. Guarded by
    // !exact() so threshold == 1.0 executes the historical instruction
    // sequence bitwise (if the diagonal were >= the column max, idamax
    // would already have chosen it and t == m above).
    if (!policy_.exact() && t != m) {
      const double diag_mag = std::fabs(cd[ml]);
      if (diag_mag >= policy_.threshold * best) {
        t = m;
        best_panel = -1;
        chosen = diag_mag;
        ++relaxed_pivots;  // kept strictly below the column max
      }
    }
    pivot_of_col_[m] = t;
    pivot_mag_[m] = chosen;
    pivot_colmax_[m] = best;
    if (t != m) {
      ++off_diagonal_pivots;
      // Swap the FULL rows m and t inside column block k (LAPACK dgetf2
      // convention: already-computed multiplier columns move too, so the
      // block's L is in position space and the later DTRSM/DGEMM algebra
      // is exact). The rest of the matrix is deferred to ScaleSwap.
      double* rm = d + ml;                      // row ml of diag, stride w
      double* rt = best_panel >= 0
                       ? p + best_panel         // panel row, stride nr
                       : d + best_diag;         // diag row, stride w
      blas::dswap(w, rm, rt, w, best_panel >= 0 ? nr : w);
    }

    const double inv = 1.0 / cd[ml];
    blas::dscal(w - ml - 1, inv, cd + ml + 1);
    blas::dscal(nr, inv, cp);
    // Every candidate was finite, so only the division can overflow: a
    // pivot kept far below the column max by a subnormal threshold.
    // Later swaps only move these multipliers, and Update's zero-column
    // skip relies on L_k being finite. (U_kk needs no check of its own:
    // a non-finite u(ml, c) reaches column c's candidates through the
    // rank-1 update below, since l * u is never finite, and column c's
    // pivot search rejects it.)
    check_finite(cd + ml + 1, w - ml - 1, m);
    check_finite(cp, nr, m);

    // Rank-1 update of the remaining columns of the diagonal block and
    // the panel: A -= l * u_row.
    const int rest = w - ml - 1;
    if (rest > 0) {
      blas::dger(rest, rest, -1.0, cd + ml + 1,
                 d + static_cast<std::ptrdiff_t>(ml + 1) * w + ml,
                 d + static_cast<std::ptrdiff_t>(ml + 1) * w + ml + 1, w,
                 /*incx=*/1, /*incy=*/w);
      if (nr > 0)
        blas::dger(nr, rest, -1.0, cp,
                   d + static_cast<std::ptrdiff_t>(ml + 1) * w + ml,
                   p + static_cast<std::ptrdiff_t>(ml + 1) * nr, nr,
                   /*incx=*/1, /*incy=*/w);
    }
  }
  factored_[k] = 1;
  const std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.flops += flops;
  stats_.off_diagonal_pivots += off_diagonal_pivots;
  stats_.relaxed_pivots += relaxed_pivots;
}

void SStarNumeric::adopt_pivots(int k, const int* rows) {
  const BlockLayout& lay = *layout_;
  const int base = lay.start(k);
  const int w = lay.width(k);
  for (int i = 0; i < w; ++i) {
    // Theorem 1: the pivot for column base+i comes from the candidate
    // rows the static structure guarantees — at or below the diagonal
    // position within the diagonal block, or an L-panel row of block k.
    // Anything else is a corrupted or forged pivot sequence.
    const int r = rows[i];
    const bool in_diag = r >= base + i && r < base + w;
    SSTAR_CHECK_MSG(in_diag || lay.panel_row_index(k, r) >= 0,
                    "adopt_pivots(" << k << "): pivot row " << r
                                    << " for column " << base + i
                                    << " is neither in rows [" << base + i
                                    << ", " << base + w
                                    << ") of the diagonal block nor an L "
                                       "panel row of block " << k);
    pivot_of_col_[static_cast<std::size_t>(base + i)] = r;
  }
  factored_[static_cast<std::size_t>(k)] = 1;
}

void SStarNumeric::adopt_pivot_monitor(int k, const double* magnitudes,
                                       const double* colmaxes) {
  const BlockLayout& lay = *layout_;
  const int base = lay.start(k);
  const int w = lay.width(k);
  int relaxed = 0;
  for (int i = 0; i < w; ++i) {
    const double mag = magnitudes[i];
    const double cm = colmaxes[i];
    // The invariants every honest Factor(k) maintains: a positive chosen
    // magnitude no larger than the finite column max it was measured
    // against. (NaN fails the comparisons; Inf fails isfinite.)
    SSTAR_CHECK_MSG(mag > 0.0 && cm >= mag && std::isfinite(cm),
                    "adopt_pivot_monitor(" << k << "): column " << base + i
                                           << " claims |pivot| = " << mag
                                           << ", colmax = " << cm);
    pivot_mag_[static_cast<std::size_t>(base + i)] = mag;
    pivot_colmax_[static_cast<std::size_t>(base + i)] = cm;
    // factor_block's relaxed branch only ever keeps a pivot STRICTLY
    // below the column max (idamax resolves ties toward the diagonal),
    // so magnitude < colmax reproduces its relaxed_pivots count exactly
    // — the adopting side's stats agree with the factoring side's.
    if (mag < cm) ++relaxed;
  }
  const std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.relaxed_pivots += relaxed;
}

// A row's stored cells within one column block: cells[i] sits at
// ptr[i * stride] and holds global column cols[i] (cols is sorted).
struct SStarNumeric::RowSlice {
  double* ptr = nullptr;
  int stride = 0;
  const int* cols = nullptr;  // nullptr => contiguous range col0..col0+n-1
  int col0 = 0;
  int n = 0;

  int col(int i) const { return cols ? cols[i] : col0 + i; }
};

SStarNumeric::RowSlice SStarNumeric::row_slice(int row, int j) {
  const BlockLayout& lay = *layout_;
  const int rb = lay.block_of_column(row);
  RowSlice s;
  if (rb == j) {
    s.ptr = store_->diag(j) + (row - lay.start(j));
    s.stride = store_->diag_ld(j);
    s.col0 = lay.start(j);
    s.n = lay.width(j);
  } else if (rb < j) {
    const BlockRef* ref = lay.find_u_block(rb, j);
    if (ref == nullptr) return s;  // empty
    s.ptr = store_->u_block(rb, ref->offset) + (row - lay.start(rb));
    s.stride = store_->u_ld(rb);
    s.cols = lay.panel_cols(rb).data() + ref->offset;
    s.n = ref->count;
  } else {
    const int r = lay.panel_row_index(j, row);
    if (r < 0) return s;  // row not present in this panel
    s.ptr = store_->l_panel(j) + r;
    s.stride = store_->l_ld(j);
    s.col0 = lay.start(j);
    s.n = lay.width(j);
  }
  return s;
}

void SStarNumeric::swap_rows_in_block(int m, int t, int j) {
  RowSlice a = row_slice(m, j);
  RowSlice b = row_slice(t, j);
#ifdef SSTAR_AUDIT_ENABLED
  if (a.ptr != nullptr)
    SSTAR_AUDIT_RECORD(layout_->block_of_column(m), j,
                       analysis::Access::kWrite);
  if (b.ptr != nullptr)
    SSTAR_AUDIT_RECORD(layout_->block_of_column(t), j,
                       analysis::Access::kWrite);
#endif
  // Walk the two sorted column lists; swap where both rows have storage.
  // Where only one side has storage the other side's content is
  // structurally zero (see subtract_tile in Update), so the stored
  // value must itself be zero and nothing needs to move.
  int ia = 0, ib = 0;
  while (ia < a.n && ib < b.n) {
    const int ca = a.col(ia);
    const int cb = b.col(ib);
    if (ca == cb) {
      std::swap(a.ptr[static_cast<std::ptrdiff_t>(ia) * a.stride],
                b.ptr[static_cast<std::ptrdiff_t>(ib) * b.stride]);
      ++ia;
      ++ib;
    } else if (ca < cb) {
      ++ia;
    } else {
      ++ib;
    }
  }
}

void SStarNumeric::scale_swap(int k, int j) {
  const trace::KernelSpan trace_span(trace::EventKind::kScale, k, j, 0);
  const BlockLayout& lay = *layout_;
  SSTAR_CHECK_MSG(factored_[k], "ScaleSwap(" << k << "," << j
                                             << ") before Factor(" << k
                                             << ")");
  SSTAR_AUDIT_RECORD(k, analysis::BlockCoord::kPivotSeq,
                     analysis::Access::kRead);
  for (int m = lay.start(k); m < lay.start(k + 1); ++m) {
    const int t = pivot_of_col_[m];
    if (t != m) swap_rows_in_block(m, t, j);
  }
}

namespace {

// Where each entry of the sorted list want[0, n) sits in the sorted list
// have[0, m): one merge walk writes map[x] = base + position, or -1 when
// want[x] is absent. Returns true iff every entry is present and the
// positions are consecutive, i.e. the targets form one unit-stride run.
bool merge_offsets(const int* want, int n, const int* have, int m, int base,
                   int* map) {
  bool run = true;
  int t = 0;
  for (int x = 0; x < n; ++x) {
    while (t < m && have[t] < want[x]) ++t;
    map[x] = t < m && have[t] == want[x] ? base + t : -1;
    run = run && map[x] >= 0 && map[x] == map[0] + x;
  }
  return run;
}

// dst(rmap[r], cmap[c]) -= src(r, c) over an mrows x ncols tile of the
// product (ld sld). A -1 in either map is a structurally absent target,
// whose products are padded-row x padded-column ones and must be zero.
// `rows_run` says rmap is one consecutive run: those columns subtract
// unit-stride.
void subtract_tile(const double* src, int sld, int mrows, int ncols,
                   const int* rmap, bool rows_run, const int* cmap,
                   double* dst, int dld) {
  for (int c = 0; c < ncols; ++c) {
    const double* s = src + static_cast<std::ptrdiff_t>(c) * sld;
    if (cmap[c] < 0) {
      for (int r = 0; r < mrows; ++r) SSTAR_DCHECK(s[r] == 0.0);
      continue;
    }
    double* d = dst + static_cast<std::ptrdiff_t>(cmap[c]) * dld;
    if (rows_run) {
      d += rmap[0];
      for (int r = 0; r < mrows; ++r) d[r] -= s[r];
      continue;
    }
    for (int r = 0; r < mrows; ++r) {
      if (rmap[r] < 0) {
        SSTAR_DCHECK(s[r] == 0.0);
        continue;
      }
      d[rmap[r]] -= s[r];
    }
  }
}

}  // namespace

void SStarNumeric::update_block(int k, int j) {
  const BlockLayout& lay = *layout_;
  SSTAR_CHECK(factored_[k]);
  const BlockRef* uref = lay.find_u_block(k, j);
  SSTAR_CHECK_MSG(uref != nullptr, "Update(" << k << "," << j
                                             << ") on a zero U block");
  const int wk = lay.width(k);
  const int ncols = uref->count;
  const int uld = store_->u_ld(k);
  double* ukj = store_->u_block(k, uref->offset);
  const int* ucols = lay.panel_cols(k).data() + uref->offset;
  const int lld = store_->l_ld(k);
  // The static S* count the machine model prices: skipped columns'
  // GEMM and subtract count as run, and skipped_flops reports them.
  const blas::FlopCount flops = update_flops(wk, lld, ncols);
  const trace::KernelSpan trace_span(trace::EventKind::kUpdate, k, j,
                                     flops.total());
  // Scratch is thread-local, not a member: concurrent Update tasks on
  // exec:: workers each get their own buffers.
  thread_local std::vector<double> work;
  thread_local std::vector<double> packed;
  thread_local std::vector<int> maps;

  SSTAR_AUDIT_RECORD(k, k, analysis::Access::kRead);
  SSTAR_AUDIT_RECORD(k, j, analysis::Access::kWrite);

  // U_kj = L_kk^{-1} U_kj.
  blas::dtrsm_lower_unit(wk, ncols, store_->diag(k), wk, ukj, uld);

  // U_kj is final: a non-finite entry fails naming its column. An
  // exactly zero column is skipped. Its GEMM column would be
  // (sum_p l * 0, summed from +0) = +0, because Factor(k) checked that
  // L_k is finite, and x - (+0) = x for every target x. Each GEMM
  // column depends only on its own column of U_kj
  // (KernelSimd.GemmColumnsAreIndependent), so the GEMM and the
  // epilogue run over the other columns, packed, and every factor bit
  // stays as it was. Maps: [0, ncols) the kept columns' global indices,
  // [ncols, 2 ncols) their columns inside column block j itself, then
  // inside row block i's U slice, then the rows.
  const int jstart = lay.start(j);
  maps.resize(static_cast<std::size_t>(3 * ncols + lld));
  int* kcols = maps.data();
  int* jcols = kcols + ncols;
  int* icols = jcols + ncols;
  int* rmap = icols + ncols;
  packed.resize(static_cast<std::size_t>(wk) * static_cast<std::size_t>(ncols));
  int nkept = 0;
  for (int c = 0; c < ncols; ++c) {
    const double* col = ukj + static_cast<std::ptrdiff_t>(c) * uld;
    check_finite(col, wk, ucols[c]);
    if (std::none_of(col, col + wk, [](double v) { return v != 0.0; }))
      continue;
    std::copy(col, col + wk,
              packed.data() + static_cast<std::ptrdiff_t>(nkept) * wk);
    kcols[nkept] = ucols[c];
    jcols[nkept++] = ucols[c] - jstart;
  }

  // work = L_k * (kept U_kj) for the whole L panel of k in ONE GEMM: the L
  // blocks are consecutive rows of one column-major panel. Each element
  // is summed from zero in k order whatever row strip it falls in, so
  // the rows of L block i carry the bits a per-block GEMM would give
  // them (pinned by KernelSimd.StackedRowsMatchPerBlockGemm).
  work.resize(static_cast<std::size_t>(lld) * static_cast<std::size_t>(nkept));
  blas::dgemm(lld, nkept, wk, 1.0, store_->l_panel(k), lld, packed.data(),
              wk, 0.0, work.data(), lld);
  // The skipped columns' GEMM and subtract: one subtract per cell.
  const std::uint64_t skipped_cells = static_cast<std::uint64_t>(lld) *
                                      static_cast<std::uint64_t>(ncols - nkept);
  blas::FlopCount skipped;
  skipped.blas1 = skipped_cells;
  skipped.blas3 = 2 * skipped_cells * static_cast<std::uint64_t>(wk);

  // A_ij -= L_ik * U_kj for every nonzero L block below the diagonal.
  const int* prows = lay.panel_rows(k).data();
  for (const BlockRef& lref : lay.l_blocks(k)) {
    const int i = lref.block;
    const int mrows = lref.count;
    const int* grows = prows + lref.offset;
    const double* src = work.data() + lref.offset;
    // The target (i, j): the diagonal block of j, a slice of row block
    // i's U panel, or a run of j's L panel. A structurally zero target
    // (tref == nullptr off the diagonal) maps every entry to -1.
    const BlockRef* tref = i == j  ? nullptr
                           : i < j ? lay.find_u_block(i, j)
                                   : lay.find_l_block(i, j);
    const int toff = tref != nullptr ? tref->offset : 0;
    const int tcount = tref != nullptr ? tref->count : 0;
    SSTAR_AUDIT_RECORD(i, k, analysis::Access::kRead);
    if (i == j || tref != nullptr)
      SSTAR_AUDIT_RECORD(i, j, analysis::Access::kWrite);
    if (nkept == 0) continue;
    if (i > j) {
      // Rows are found in the (i, j) run of panel_rows(j); columns are
      // direct.
      const bool rows_run =
          merge_offsets(grows, mrows, lay.panel_rows(j).data() + toff,
                        tcount, toff, rmap);
      subtract_tile(src, lld, mrows, nkept, rmap, rows_run, jcols,
                    store_->l_panel(j), store_->l_ld(j));
      continue;
    }
    // Rows are direct: block i's rows of the diagonal block or U panel.
    // Panel rows strictly increase, so they are one run exactly when
    // their span equals their count.
    const int istart = lay.start(i);
    for (int r = 0; r < mrows; ++r) rmap[r] = grows[r] - istart;
    const bool rows_run = grows[mrows - 1] - grows[0] == mrows - 1;
    if (i == j) {
      subtract_tile(src, lld, mrows, nkept, rmap, rows_run, jcols,
                    store_->diag(j), store_->diag_ld(j));
    } else {
      // Columns are found in the slice's run of panel_cols(i). A
      // distributed store holds U per slice, so the slice is addressed
      // as u_block(i, toff).
      merge_offsets(kcols, nkept, lay.panel_cols(i).data() + toff, tcount,
                    0, icols);
      subtract_tile(src, lld, mrows, nkept, rmap, rows_run, icols,
                    tref != nullptr ? store_->u_block(i, toff) : nullptr,
                    store_->u_ld(i));
    }
  }
  const std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.flops += flops;
  stats_.skipped_flops += skipped;
}

void SStarNumeric::factorize() {
  const int nb = layout_->num_blocks();
  for (int k = 0; k < nb; ++k) {
    factor_block(k);
    for (const BlockRef& uref : layout_->u_blocks(k)) {
      scale_swap(k, uref.block);
      update_block(k, uref.block);
    }
  }
}

void SStarNumeric::forward_block_panel(int k, double* rhs, int ld,
                                       int ncols) const {
  const BlockLayout& lay = *layout_;
  const int w = lay.width(k);
  const int base = lay.start(k);
  const auto& prows = lay.panel_rows(k);
  const int nr = static_cast<int>(prows.size());
  // Apply the block's row interchanges first (the stored block L is in
  // end-of-block position space — see factor_block), then eliminate.
  // The diagonal solve skips all-zero panel rows and the panel update
  // skips all-zero x rows, together replaying the single-RHS loop's
  // bm == 0.0 short-cut: at ncols == 1 the conditions coincide exactly,
  // at ncols > 1 a row is skipped only when every column is zero there,
  // which never changes results for negative-zero-free data.
  for (int ml = 0; ml < w; ++ml) {
    const int m = base + ml;
    const int t = pivot_of_col_[m];
    SSTAR_CHECK_MSG(t >= 0, "solve before factorize");
    if (t != m)
      blas::dswap(ncols, rhs + static_cast<std::ptrdiff_t>(m) * ld,
                  rhs + static_cast<std::ptrdiff_t>(t) * ld);
  }
  double* bk = rhs + static_cast<std::ptrdiff_t>(base) * ld;
  blas::rhs_lower_solve(w, ncols, store_->diag(k), w, bk, ld);
  if (nr > 0)
    blas::rhs_panel_update(nr, w, ncols, store_->l_panel(k), nr, bk, ld,
                           nullptr, rhs, ld, prows.data(),
                           /*skip_zero_x_rows=*/true);
}

void SStarNumeric::backward_block_panel(int k, double* rhs, int ld,
                                        int ncols) const {
  const BlockLayout& lay = *layout_;
  const int w = lay.width(k);
  const int base = lay.start(k);
  const auto& pcols = lay.panel_cols(k);
  const int nc = static_cast<int>(pcols.size());
  double* bk = rhs + static_cast<std::ptrdiff_t>(base) * ld;
  // U-panel terms first — row by row they are the leading, c-ascending
  // part of the sequential row accumulation — then the left-looking
  // diagonal solve finishes each row with its cl-ascending terms and
  // the divide, preserving the single-RHS op order per element.
  if (nc > 0)
    blas::rhs_panel_update(w, nc, ncols, store_->u_panel(k), w, rhs, ld,
                           pcols.data(), bk, ld, nullptr,
                           /*skip_zero_x_rows=*/false);
  blas::rhs_upper_solve(w, ncols, store_->diag(k), w, bk, ld);
}

namespace {

// Reversed-transposed copy of a w x w diagonal block: dr(i, j) =
// D(w-1-j, w-1-i). Under the index reversal i -> w-1-i the transposed
// upper factor U_kkᵀ (lower triangular) lands in dr's UPPER part and
// the transposed unit strict-lower factor L_kkᵀ lands in dr's STRICT
// LOWER part, so this one copy feeds rhs_upper_solve for the Uᵀ stage
// and rhs_lower_solve for the Lᵀ stage — the transpose solves ride the
// existing multi-RHS panel kernels instead of growing new ones.
std::vector<double> reversed_diag_copy(const double* d, int w) {
  std::vector<double> dr(static_cast<std::size_t>(w) * w);
  for (int j = 0; j < w; ++j)
    for (int i = 0; i < w; ++i)
      dr[static_cast<std::size_t>(j) * w + i] =
          d[static_cast<std::ptrdiff_t>(w - 1 - i) * w + (w - 1 - j)];
  return dr;
}

// Run one of the reversed triangular solves on the block's w panel
// rows: shuttle them (row-reversed) through a scratch panel, solve
// against the reversed-transposed diagonal, shuttle back.
void reversed_diag_solve(const std::vector<double>& dr, int w, double* bk,
                         int ld, int ncols, bool upper) {
  std::vector<double> rev(static_cast<std::size_t>(w) * ncols);
  for (int i = 0; i < w; ++i) {
    const double* src = bk + static_cast<std::ptrdiff_t>(w - 1 - i) * ld;
    std::copy(src, src + ncols,
              rev.data() + static_cast<std::size_t>(i) * ncols);
  }
  if (upper)
    blas::rhs_upper_solve(w, ncols, dr.data(), w, rev.data(), ncols);
  else
    blas::rhs_lower_solve(w, ncols, dr.data(), w, rev.data(), ncols);
  for (int i = 0; i < w; ++i) {
    const double* src = rev.data() + static_cast<std::size_t>(i) * ncols;
    std::copy(src, src + ncols,
              bk + static_cast<std::ptrdiff_t>(w - 1 - i) * ld);
  }
}

}  // namespace

void SStarNumeric::transpose_forward_block_panel(int k, double* rhs, int ld,
                                                 int ncols) const {
  // Step-1 body of the transposed elimination sequence: with the
  // forward application b -> U^{-1} (E_N ... E_1 b), E_k = M_k P_k,
  // A^{-T} b = E_1ᵀ ... E_Nᵀ U^{-T} b. This stage (blocks ascending)
  // computes block k's share of y = U^{-T} b: solve U_kkᵀ on the block
  // rows, then scatter the U panel's transposed action into the panel
  // columns.
  const BlockLayout& lay = *layout_;
  const int w = lay.width(k);
  const int base = lay.start(k);
  const auto& pcols = lay.panel_cols(k);
  const int nc = static_cast<int>(pcols.size());
  SSTAR_CHECK_MSG(pivot_of_col_[base] >= 0, "solve before factorize");
  double* bk = rhs + static_cast<std::ptrdiff_t>(base) * ld;

  reversed_diag_solve(reversed_diag_copy(store_->diag(k), w), w, bk, ld,
                      ncols, /*upper=*/true);
  if (nc > 0) {
    // b[pcols] -= U_k·ᵀ y: the panel update needs a(i, p) = U(p, i),
    // so hand it a transposed copy of the U panel.
    const double* u = store_->u_panel(k);
    std::vector<double> ut(static_cast<std::size_t>(nc) * w);
    for (int c = 0; c < nc; ++c)
      for (int ml = 0; ml < w; ++ml)
        ut[static_cast<std::size_t>(ml) * nc + c] =
            u[static_cast<std::ptrdiff_t>(c) * w + ml];
    blas::rhs_panel_update(nc, w, ncols, ut.data(), nc, bk, ld, nullptr,
                           rhs, ld, pcols.data(),
                           /*skip_zero_x_rows=*/true);
  }
}

void SStarNumeric::transpose_backward_block_panel(int k, double* rhs, int ld,
                                                  int ncols) const {
  // Step-2 body: E_kᵀ = P_kᵀ M_kᵀ (blocks descending). M_kᵀ subtracts,
  // into each pivot position, the dot product of its L column with the
  // current panel — the L-panel gather first (those rows are outside
  // the block and already final), then the unit L_kkᵀ solve on the
  // block rows; P_kᵀ replays the block's transpositions in reverse.
  const BlockLayout& lay = *layout_;
  const int w = lay.width(k);
  const int base = lay.start(k);
  const auto& prows = lay.panel_rows(k);
  const int nr = static_cast<int>(prows.size());
  SSTAR_CHECK_MSG(pivot_of_col_[base] >= 0, "solve before factorize");
  double* bk = rhs + static_cast<std::ptrdiff_t>(base) * ld;

  if (nr > 0) {
    // bk -= L_panelᵀ b[prows]: a(ml, i) = L(prows[i], ml).
    const double* p = store_->l_panel(k);
    std::vector<double> lt(static_cast<std::size_t>(w) * nr);
    for (int ml = 0; ml < w; ++ml)
      for (int i = 0; i < nr; ++i)
        lt[static_cast<std::size_t>(i) * w + ml] =
            p[static_cast<std::ptrdiff_t>(ml) * nr + i];
    blas::rhs_panel_update(w, nr, ncols, lt.data(), w, rhs, ld,
                           prows.data(), bk, ld, nullptr,
                           /*skip_zero_x_rows=*/false);
  }
  reversed_diag_solve(reversed_diag_copy(store_->diag(k), w), w, bk, ld,
                      ncols, /*upper=*/false);
  for (int ml = w - 1; ml >= 0; --ml) {
    const int m = base + ml;
    const int t = pivot_of_col_[m];
    if (t != m)
      blas::dswap(ncols, rhs + static_cast<std::ptrdiff_t>(m) * ld,
                  rhs + static_cast<std::ptrdiff_t>(t) * ld);
  }
}

void SStarNumeric::solve_panel(double* rhs, int ncols, bool transpose) const {
  SSTAR_CHECK(ncols >= 1);
  const int nb = layout_->num_blocks();
  for (int k = 0; k < nb; ++k) {
    if (transpose)
      transpose_forward_block_panel(k, rhs, ncols, ncols);
    else
      forward_block_panel(k, rhs, ncols, ncols);
  }
  for (int k = nb - 1; k >= 0; --k) {
    if (transpose)
      transpose_backward_block_panel(k, rhs, ncols, ncols);
    else
      backward_block_panel(k, rhs, ncols, ncols);
  }
}

// A vector is a row-major panel with one column.
std::vector<double> SStarNumeric::solve(std::vector<double> b) const {
  SSTAR_CHECK(b.size() == static_cast<std::size_t>(layout_->n()));
  solve_panel(b.data(), 1);
  return b;
}

std::vector<double> SStarNumeric::solve_transpose(
    std::vector<double> b) const {
  SSTAR_CHECK(b.size() == static_cast<std::size_t>(layout_->n()));
  solve_panel(b.data(), 1, /*transpose=*/true);
  return b;
}

void SStarNumeric::reconstruct_pa_lu(std::vector<int>* perm, DenseMatrix* l,
                                     DenseMatrix* u) const {
  const BlockLayout& lay = *layout_;
  const int n = lay.n();
  DenseMatrix lf(n, n);
  DenseMatrix uf(n, n);
  std::vector<int> row_at(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) row_at[i] = i;

  for (int k = 0; k < lay.num_blocks(); ++k) {
    const int w = lay.width(k);
    const int base = lay.start(k);
    const double* d = store_->diag(k);
    const double* p = store_->l_panel(k);
    const double* uu = store_->u_panel(k);
    const auto& prows = lay.panel_rows(k);
    const auto& pcols = lay.panel_cols(k);
    const int nr = static_cast<int>(prows.size());
    // Apply the block's interchanges to the accumulated L rows first:
    // the stored block L is already in end-of-block position space.
    for (int ml = 0; ml < w; ++ml) {
      const int m = base + ml;
      const int t = pivot_of_col_[m];
      if (t != m) {
        for (int c = 0; c < base; ++c) std::swap(lf(m, c), lf(t, c));
        std::swap(row_at[m], row_at[t]);
      }
    }
    for (int ml = 0; ml < w; ++ml) {
      const int m = base + ml;
      lf(m, m) = 1.0;
      // L column m: diagonal block rows below ml + panel rows (these are
      // the positions where the multipliers sit right now, matching the
      // full-swap formulation at step m).
      const double* cd = d + static_cast<std::ptrdiff_t>(ml) * w;
      for (int i = ml + 1; i < w; ++i) lf(base + i, m) = cd[i];
      const double* cp = p + static_cast<std::ptrdiff_t>(ml) * nr;
      for (int i = 0; i < nr; ++i) lf(prows[i], m) = cp[i];
      // U row m.
      for (int cl = ml; cl < w; ++cl)
        uf(m, base + cl) = d[static_cast<std::ptrdiff_t>(cl) * w + ml];
      for (int c = 0; c < static_cast<int>(pcols.size()); ++c)
        uf(m, pcols[c]) = uu[static_cast<std::ptrdiff_t>(c) * w + ml];
    }
  }

  if (perm) {
    perm->assign(static_cast<std::size_t>(n), -1);
    for (int i = 0; i < n; ++i) (*perm)[row_at[i]] = i;
  }
  if (l) *l = std::move(lf);
  if (u) *u = std::move(uf);
}

}  // namespace sstar
