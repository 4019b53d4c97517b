#include "core/block_store.hpp"

#include <algorithm>

#include "trace/trace.hpp"
#include "util/check.hpp"

namespace sstar {

double* BlockStore::entry_ptr(int row, int col) {
  const BlockLayout& lay = *layout_;
  if (row < 0 || row >= lay.n() || col < 0 || col >= lay.n()) return nullptr;
  const int jb = lay.block_of_column(col);
  const int ib = lay.block_of_column(row);
  const int lc = col - lay.start(jb);
  if (ib == jb) {
    return diag(jb) + static_cast<std::ptrdiff_t>(lc) * diag_ld(jb) +
           (row - lay.start(ib));
  }
  if (ib > jb) {
    const int r = lay.panel_row_index(jb, row);
    if (r < 0) return nullptr;
    return l_panel(jb) + static_cast<std::ptrdiff_t>(lc) * l_ld(jb) + r;
  }
  const int c = lay.panel_col_index(ib, col);
  if (c < 0) return nullptr;
  return u_block(ib, c) + (row - lay.start(ib));
}

double BlockStore::value_at(int row, int col) const {
  const double* p = entry_ptr(row, col);
  return p ? *p : 0.0;
}

void BlockStore::assemble(const SparseMatrix& a) {
  const BlockLayout& lay = *layout_;
  SSTAR_CHECK(a.rows() == lay.n() && a.cols() == lay.n());
  clear();
  // Columns ascend, and rows ascend within each column, so forward
  // cursors find the slots entry_ptr would: one over panel_rows(jb) per
  // column, and one per row block over panel_cols(ib) for the matrix.
  std::vector<int> ucur(static_cast<std::size_t>(lay.num_blocks()), 0);
  for (int j = 0; j < a.cols(); ++j) {
    const int jb = lay.block_of_column(j);
    if (!stores_column_block(jb)) continue;
    const int base = lay.start(jb);
    const std::ptrdiff_t lc = j - base;
    double* dcol = diag(jb) + lc * diag_ld(jb);
    double* lcol = l_panel(jb) + lc * l_ld(jb);
    const std::vector<int>& prows = lay.panel_rows(jb);
    std::size_t lcur = 0;
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      const int row = a.row_idx()[k];
      const int ib = lay.block_of_column(row);
      double* p = nullptr;
      if (ib == jb) {
        p = dcol + (row - base);
      } else if (ib > jb) {
        while (lcur < prows.size() && prows[lcur] < row) ++lcur;
        if (lcur < prows.size() && prows[lcur] == row) p = lcol + lcur;
      } else {
        const std::vector<int>& pcols = lay.panel_cols(ib);
        int& c = ucur[static_cast<std::size_t>(ib)];
        while (c < static_cast<int>(pcols.size()) && pcols[c] < j) ++c;
        if (c < static_cast<int>(pcols.size()) && pcols[c] == j)
          p = u_block(ib, c) + (row - lay.start(ib));
      }
      SSTAR_CHECK_MSG(p != nullptr, "entry (" << row << "," << j
                                              << ") outside static structure");
      *p = a.values()[k];
    }
  }
}

// ---------------------------------------------------------------------------
// DistBlockStore

DistBlockStore::DistBlockStore(const BlockLayout& layout, Options opt)
    : BlockStore(layout),
      rank_(opt.rank),
      owner_(std::move(opt.owner)),
      plan_uses_(std::move(opt.consumer_uses)) {
  const int nb = layout.num_blocks();
  SSTAR_CHECK_MSG(static_cast<int>(owner_.size()) == nb,
                  "DistBlockStore: owner map covers " << owner_.size()
                                                      << " blocks, layout has "
                                                      << nb);
  plan_uses_.resize(static_cast<std::size_t>(nb), 0);
  diag_off_.assign(static_cast<std::size_t>(nb), -1);
  l_off_.assign(static_cast<std::size_t>(nb), -1);
  u_slices_.resize(static_cast<std::size_t>(nb));
  cache_.resize(static_cast<std::size_t>(nb));

  // Owned arena: diag + L panel per owned column block, plus every
  // U block slice whose COLUMN block is owned (the owner-computes
  // write set of this rank).
  std::int64_t off = 0;
  for (int b = 0; b < nb; ++b) {
    if (owns(b)) {
      const std::int64_t w = layout.width(b);
      diag_off_[b] = off;
      off += w * w;
      l_off_[b] = off;
      off += static_cast<std::int64_t>(layout.panel_rows(b).size()) * w;
    }
    for (const BlockRef& ref : layout.u_blocks(b)) {
      if (owner_[static_cast<std::size_t>(ref.block)] != rank_) continue;
      u_slices_[static_cast<std::size_t>(b)].push_back(
          USlice{ref.offset, ref.count, off});
      off += static_cast<std::int64_t>(layout.width(b)) * ref.count;
    }
  }
  arena_.assign(static_cast<std::size_t>(off), 0.0);
  SSTAR_DCHECK(is_arena_aligned(arena_.data()));
  owned_doubles_ = off;
}

void DistBlockStore::out_of_store(int b, const char* what) const {
  const CacheEntry& e = cache_[static_cast<std::size_t>(b)];
  const char* why =
      e.state == PanelState::kReleased
          ? " (its cached factor panel was already released after its last "
            "declared consumer)"
          : " (no factor panel received for it)";
  SSTAR_FAIL("rank " << rank_ << ": " << what << " of block " << b
                     << " is not in this rank's store — the block is owned "
                        "by rank "
                     << owner_[static_cast<std::size_t>(b)] << why);
}

double* DistBlockStore::diag(int b) {
  if (owns(b)) return arena_.data() + diag_off_[b];
  CacheEntry& e = cache_[static_cast<std::size_t>(b)];
  if (e.state != PanelState::kResident) out_of_store(b, "diag block");
  return e.data.data();
}

double* DistBlockStore::l_panel(int b) {
  if (owns(b)) return arena_.data() + l_off_[b];
  CacheEntry& e = cache_[static_cast<std::size_t>(b)];
  if (e.state != PanelState::kResident) out_of_store(b, "L panel");
  return e.data.data() +
         static_cast<std::ptrdiff_t>(layout_->width(b)) * layout_->width(b);
}

double* DistBlockStore::u_block(int i, int offset) {
  // Binary search the owned slices of row block i for the one whose
  // column range contains `offset`.
  const std::vector<USlice>& slices = u_slices_[static_cast<std::size_t>(i)];
  const auto it = std::upper_bound(
      slices.begin(), slices.end(), offset,
      [](int off, const USlice& s) { return off < s.offset; });
  if (it != slices.begin()) {
    const USlice& s = *(it - 1);
    if (offset < s.offset + s.count)
      return arena_.data() + s.off +
             static_cast<std::ptrdiff_t>(offset - s.offset) *
                 layout_->width(i);
  }
  // Not owned: name the column block for the diagnostic.
  const std::vector<int>& pcols = layout_->panel_cols(i);
  const int col_block =
      offset >= 0 && offset < static_cast<int>(pcols.size())
          ? layout_->block_of_column(pcols[static_cast<std::size_t>(offset)])
          : -1;
  SSTAR_FAIL("rank " << rank_ << ": U slice of row block " << i
                     << " at panel column " << offset
                     << " is not in this rank's store — column block "
                     << col_block << " is owned by rank "
                     << (col_block >= 0
                             ? owner_[static_cast<std::size_t>(col_block)]
                             : -1));
}

double* DistBlockStore::u_panel(int i) {
  SSTAR_FAIL("rank " << rank_ << ": whole U panel of row block " << i
                     << " is not addressable on a distributed store (only "
                        "owned column slices exist); merge into a "
                        "PackedBlockStore first");
}

void DistBlockStore::clear() {
  std::fill(arena_.begin(), arena_.end(), 0.0);
  for (CacheEntry& e : cache_) e = CacheEntry{};
  cache_doubles_ = 0;
  peak_cache_doubles_ = 0;
  panels_cached_ = 0;
  peak_panels_cached_ = 0;
}

std::int64_t DistBlockStore::size() const {
  return owned_doubles_ + cache_doubles_;
}

std::int64_t DistBlockStore::panel_doubles(int k) const {
  const std::int64_t w = layout_->width(k);
  return w * w + static_cast<std::int64_t>(layout_->panel_rows(k).size()) * w;
}

void DistBlockStore::on_panel_received(int k) {
  SSTAR_CHECK_MSG(!owns(k), "rank " << rank_ << ": received a factor panel "
                                    << "for its own block " << k);
  CacheEntry& e = cache_[static_cast<std::size_t>(k)];
  SSTAR_CHECK_MSG(e.state == PanelState::kNeverReceived,
                  "rank " << rank_ << ": factor panel " << k
                          << " received twice");
  const int uses = plan_uses_[static_cast<std::size_t>(k)];
  SSTAR_CHECK_MSG(uses > 0, "rank " << rank_ << ": received factor panel "
                                    << k << " but the comm plan declares no "
                                       "consuming task on this rank");
  e.data.assign(static_cast<std::size_t>(panel_doubles(k)), 0.0);
  SSTAR_DCHECK(is_arena_aligned(e.data.data()));
  e.remaining = uses;
  e.state = PanelState::kResident;
  cache_doubles_ += panel_doubles(k);
  peak_cache_doubles_ = std::max(peak_cache_doubles_, cache_doubles_);
  panels_cached_ += 1;
  peak_panels_cached_ = std::max(peak_panels_cached_, panels_cached_);
  if (trace::TraceCollector::active() != nullptr) {
    trace::TraceEvent e;
    e.kind = trace::EventKind::kPanelAlloc;
    e.k = k;
    e.bytes = panel_doubles(k) * 8;
    e.t0 = e.t1 = trace::TraceCollector::now();
    trace::TraceCollector::record(e);
  }
}

void DistBlockStore::on_panel_consumed(int k) {
  if (owns(k)) return;  // owned storage never expires
  CacheEntry& e = cache_[static_cast<std::size_t>(k)];
  SSTAR_CHECK_MSG(e.state == PanelState::kResident,
                  "rank " << rank_ << ": consumed factor panel " << k
                          << " which is not resident");
  if (--e.remaining == 0) release_panel(k);
}

void DistBlockStore::release_panel(int k) {
  CacheEntry& e = cache_[static_cast<std::size_t>(k)];
  e.data = AlignedDoubles();  // actually free, not just clear
  e.state = PanelState::kReleased;
  cache_doubles_ -= panel_doubles(k);
  panels_cached_ -= 1;
  if (trace::TraceCollector::active() != nullptr) {
    trace::TraceEvent e;
    e.kind = trace::EventKind::kPanelFree;
    e.k = k;
    e.bytes = panel_doubles(k) * 8;
    e.t0 = e.t1 = trace::TraceCollector::now();
    trace::TraceCollector::record(e);
  }
}

std::vector<int> DistBlockStore::resident_remote_panels() const {
  std::vector<int> out;
  for (int k = 0; k < static_cast<int>(cache_.size()); ++k)
    if (cache_[static_cast<std::size_t>(k)].state == PanelState::kResident)
      out.push_back(k);
  return out;
}

void DistBlockStore::set_release_override(int k, int uses) {
  SSTAR_CHECK(k >= 0 && k < layout_->num_blocks() && uses > 0);
  SSTAR_CHECK_MSG(!owns(k), "release override on owned block " << k);
  plan_uses_[static_cast<std::size_t>(k)] = uses;
}

}  // namespace sstar
