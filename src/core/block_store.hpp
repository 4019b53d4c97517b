// Abstract numeric block storage + the distributed (owner-only) store.
//
// The factorization kernels (core/numeric) address storage through this
// interface at BLOCK granularity: the diagonal block and L panel of a
// supernode, and the per-U-block column slices of a row block's U
// panel. Two implementations exist:
//
//  - PackedBlockStore (core/block_matrix.hpp): one contiguous arena
//    holding every block — the sequential driver's and shared-memory
//    executor's storage, where all of the factor lives in one address
//    space;
//  - DistBlockStore (below): ONE RANK's memory in a message-passing
//    execution. It allocates the diag/L/U areas only for the column
//    blocks the rank owns, plus a remote-panel cache that materializes
//    a received Factor(k) payload (diag + L panel) on arrival and
//    releases it after its last consuming Update, using per-panel
//    consumer refcounts derived from the comm plan
//    (sim::panel_consumer_counts). Per-rank memory is therefore
//    O(factor/P + live panels) instead of the full-replica O(factor)
//    the MP runtime used before this store existed.
//
// Distribution honesty is structural: an access to a column block the
// rank does not own — and has not currently received — is an
// out-of-store lookup that THROWS with rank/block diagnostics, instead
// of silently reading a replica. (The earlier NaN-poisoning discipline
// is obsolete; see DESIGN.md §11.)
//
// Addressing contract shared by both stores (bitwise-compatible):
//  - diag(b): width x width column-major, ld = diag_ld(b) = width;
//  - l_panel(b): |panel_rows| x width column-major, ld = l_ld(b);
//  - u_block(i, off): pointer to panel column `off` of row block i's U
//    panel, ld = u_ld(i) = width(i). Valid for the contiguous columns
//    of the U block containing `off`, so a (width x count) slice copy
//    or GEMM runs over identical bytes in either store.
#pragma once

#include <cstdint>
#include <vector>

#include "matrix/sparse.hpp"
#include "supernode/block_layout.hpp"
#include "util/aligned.hpp"

namespace sstar {

class BlockStore {
 public:
  explicit BlockStore(const BlockLayout& layout) : layout_(&layout) {}
  virtual ~BlockStore() = default;
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  const BlockLayout& layout() const { return *layout_; }

  // --- block areas (hot path; per-block granularity) --------------------
  virtual double* diag(int b) = 0;
  virtual double* l_panel(int b) = 0;
  /// Panel column `offset` of row block i's U panel; valid through the
  /// columns of the containing U block.
  virtual double* u_block(int i, int offset) = 0;
  /// The WHOLE U panel of row block i. Only a packed store can address
  /// it (a distributed rank holds just its owned column slices); the
  /// distributed store throws.
  virtual double* u_panel(int i) = 0;

  const double* diag(int b) const {
    return const_cast<BlockStore*>(this)->diag(b);
  }
  const double* l_panel(int b) const {
    return const_cast<BlockStore*>(this)->l_panel(b);
  }
  const double* u_block(int i, int offset) const {
    return const_cast<BlockStore*>(this)->u_block(i, offset);
  }
  const double* u_panel(int i) const {
    return const_cast<BlockStore*>(this)->u_panel(i);
  }

  /// Leading dimension of the diagonal block (== width(b)).
  int diag_ld(int b) const { return layout_->width(b); }
  /// Leading dimension of the L panel (== number of panel rows).
  int l_ld(int b) const {
    return static_cast<int>(layout_->panel_rows(b).size());
  }
  /// Leading dimension of the U panel (== width(b)).
  int u_ld(int b) const { return layout_->width(b); }

  /// True if this store holds writable storage for column block b's
  /// factor columns (diag, L panel, U column slices). Packed: always.
  virtual bool stores_column_block(int b) const {
    (void)b;
    return true;
  }

  // --- element addressing (slow; tests and diagnostics only) ------------
  /// Pointer to the storage cell of global (row, col); nullptr if the
  /// position is not stored OR row/col are out of the matrix range.
  double* entry_ptr(int row, int col);
  const double* entry_ptr(int row, int col) const {
    return const_cast<BlockStore*>(this)->entry_ptr(row, col);
  }

  /// Stored value at (row, col); 0 for unstored or out-of-range
  /// positions.
  double value_at(int row, int col) const;

  /// Scatter the entries of A into the (zeroed) storage, finding each
  /// slot with forward cursors over the sorted panel lists. Every entry
  /// of A inside a stored column block must lie inside the static
  /// structure (else CheckError names its (row, col)); entries of
  /// unstored column blocks are skipped (they belong to some other
  /// rank's store).
  void assemble(const SparseMatrix& a);

  /// Reset all values to zero (storage shape is kept; a distributed
  /// store also drops its remote-panel cache).
  virtual void clear() = 0;

  /// Currently allocated doubles (owned areas + any resident cache).
  virtual std::int64_t size() const = 0;

  // --- remote-panel lifetime protocol (no-ops on a packed store) --------
  /// A serialized Factor(k) payload is about to be applied: make
  /// diag(k)/l_panel(k) addressable (materialize the cache entry).
  virtual void on_panel_received(int k) { (void)k; }
  /// One consuming ScaleSwap+Update pair against panel k finished; after
  /// the last declared consumer the cached panel is freed.
  virtual void on_panel_consumed(int k) { (void)k; }

 protected:
  const BlockLayout* layout_;
};

/// One rank's owner-only storage for a message-passing execution.
class DistBlockStore final : public BlockStore {
 public:
  struct Options {
    int rank = 0;
    /// owner[b] = rank whose store holds column block b (from
    /// sim::panel_owners). Size must equal layout.num_blocks().
    std::vector<int> owner;
    /// consumer_uses[k] = number of consuming ScaleSwap+Update pairs
    /// this rank runs against a REMOTE panel k (from
    /// sim::panel_consumer_counts); the cache refcount starts here.
    std::vector<int> consumer_uses;
  };

  DistBlockStore(const BlockLayout& layout, Options opt);

  bool owns(int b) const {
    return owner_[static_cast<std::size_t>(b)] == rank_;
  }
  int rank() const { return rank_; }

  // BlockStore interface. Owned blocks resolve into the owned arena;
  // remote diag/l_panel resolve into the panel cache when resident and
  // throw CheckError with rank/block/owner diagnostics otherwise.
  double* diag(int b) override;
  double* l_panel(int b) override;
  double* u_block(int i, int offset) override;
  double* u_panel(int i) override;  // always throws: not addressable
  using BlockStore::diag;
  using BlockStore::l_panel;
  using BlockStore::u_block;
  using BlockStore::u_panel;

  bool stores_column_block(int b) const override { return owns(b); }
  void clear() override;
  std::int64_t size() const override;

  void on_panel_received(int k) override;
  void on_panel_consumed(int k) override;

  // --- memory accounting -------------------------------------------------
  /// Doubles allocated for owned blocks (fixed at construction).
  std::int64_t owned_doubles() const { return owned_doubles_; }
  /// Doubles currently held by the remote-panel cache.
  std::int64_t cache_doubles() const { return cache_doubles_; }
  /// Cache high-water mark over the run, in doubles.
  std::int64_t peak_cache_doubles() const { return peak_cache_doubles_; }
  /// owned + cache high-water: the rank's peak store footprint.
  std::int64_t peak_doubles() const {
    return owned_doubles_ + peak_cache_doubles_;
  }
  int panels_cached() const { return panels_cached_; }
  int peak_panels_cached() const { return peak_panels_cached_; }

  /// Remote panels still resident — after a finished program this must
  /// be empty; anything left is a refcount leak (tools/sstar_mp fails
  /// its verification on it).
  std::vector<int> resident_remote_panels() const;

  /// TEST HOOK: release panel k after `uses` consuming uses instead of
  /// the plan-derived count. Forcing an early release makes the next
  /// consumer throw an out-of-store error; the static comm audit
  /// (analysis/comm_audit.hpp) flags the same edited count.
  void set_release_override(int k, int uses);

 private:
  enum class PanelState : std::uint8_t { kNeverReceived, kResident, kReleased };
  struct CacheEntry {
    AlignedDoubles data;  // diag (w*w) then L panel (nr*w), 64B-aligned
    int remaining = 0;         // consuming uses until release
    PanelState state = PanelState::kNeverReceived;
  };
  struct USlice {
    int offset = 0;     // first panel col of the slice
    int count = 0;      // columns in the slice
    std::int64_t off = 0;  // arena offset
  };

  [[noreturn]] void out_of_store(int b, const char* what) const;
  void release_panel(int k);
  std::int64_t panel_doubles(int k) const;

  int rank_ = 0;
  std::vector<int> owner_;
  AlignedDoubles arena_;                      // owned areas, contiguous, 64B-aligned
  std::vector<std::int64_t> diag_off_;        // -1 when not owned
  std::vector<std::int64_t> l_off_;           // -1 when not owned
  std::vector<std::vector<USlice>> u_slices_; // per row block, owned slices
  std::vector<CacheEntry> cache_;             // per supernode
  std::vector<int> plan_uses_;                // refcount starting values
  std::int64_t owned_doubles_ = 0;
  std::int64_t cache_doubles_ = 0;
  std::int64_t peak_cache_doubles_ = 0;
  int panels_cached_ = 0;
  int peak_panels_cached_ = 0;
};

}  // namespace sstar
