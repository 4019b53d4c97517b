// Packed (monolithic) numeric storage for the factorization.
//
// Per supernode b three dense, column-major areas are allocated in ONE
// contiguous arena, laid out per BlockLayout:
//  - the diagonal block, width(b) x width(b) (unit-lower L triangle and
//    upper U triangle share it, as in LAPACK's packed LU);
//  - the L panel, |panel_rows(b)| x width(b) (all L blocks below the
//    diagonal, stacked);
//  - the U panel, width(b) x |panel_cols(b)| (all U blocks to the right
//    of the diagonal, side by side).
// Individual off-diagonal blocks are row ranges of the L panel / column
// ranges of the U panel (BlockRef), so every Update(k, j) GEMM operates
// on contiguous-with-stride memory.
//
// This is the BlockStore implementation used by the sequential driver
// and the shared-memory executor (the whole factor lives in one address
// space); the owner-only per-rank store of the message-passing runtime
// is DistBlockStore in core/block_store.hpp.
#pragma once

#include <vector>

#include "core/block_store.hpp"
#include "util/aligned.hpp"

namespace sstar {

class PackedBlockStore final : public BlockStore {
 public:
  explicit PackedBlockStore(const BlockLayout& layout);

  // --- raw areas --------------------------------------------------------
  double* diag(int b) override { return store_.data() + diag_off_[b]; }
  double* l_panel(int b) override { return store_.data() + l_off_[b]; }
  double* u_panel(int b) override { return store_.data() + u_off_[b]; }
  double* u_block(int i, int offset) override {
    return store_.data() + u_off_[i] +
           static_cast<std::ptrdiff_t>(offset) * u_ld(i);
  }
  using BlockStore::diag;
  using BlockStore::l_panel;
  using BlockStore::u_block;
  using BlockStore::u_panel;

  void clear() override;

  /// Total allocated doubles.
  std::int64_t size() const override {
    return static_cast<std::int64_t>(store_.size());
  }

 private:
  AlignedDoubles store_;  // 64-byte-aligned base (SIMD kernels)
  std::vector<std::int64_t> diag_off_;
  std::vector<std::int64_t> l_off_;
  std::vector<std::int64_t> u_off_;
};

}  // namespace sstar
