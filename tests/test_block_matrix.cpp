// Tests for the BlockMatrix numeric storage: addressing, assembly, and
// the panel slicing the kernels depend on.
#include <gtest/gtest.h>

#include <string>

#include "core/block_matrix.hpp"
#include "ordering/transversal.hpp"
#include "supernode/partition.hpp"
#include "symbolic/static_symbolic.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace sstar {
namespace {

struct Fixture {
  SparseMatrix a;
  StaticStructure s;
  std::unique_ptr<BlockLayout> layout;

  static Fixture make(int n, std::uint64_t seed, int mb, int r) {
    Fixture f;
    f.a = make_zero_free_diagonal(testing::random_sparse(n, 3, seed));
    f.s = static_symbolic_factorization(f.a);
    f.layout = std::make_unique<BlockLayout>(
        f.s, amalgamate(f.s, find_supernodes(f.s, mb), r, mb));
    return f;
  }
};

TEST(BlockMatrix, AssembleRoundTripsEveryEntry) {
  const auto f = Fixture::make(50, 1, 8, 4);
  BlockMatrix bm(*f.layout);
  bm.assemble(f.a);
  for (int j = 0; j < 50; ++j)
    for (int k = f.a.col_begin(j); k < f.a.col_end(j); ++k)
      EXPECT_EQ(bm.value_at(f.a.row_idx()[k], j), f.a.values()[k]);
}

TEST(BlockMatrix, UnstoredPositionsReadZeroAndNullPtr) {
  const auto f = Fixture::make(50, 2, 8, 0);
  BlockMatrix bm(*f.layout);
  bm.assemble(f.a);
  int missing = 0;
  for (int j = 0; j < 50 && missing < 20; ++j) {
    for (int i = 0; i < 50; ++i) {
      const int jb = f.layout->block_of_column(j);
      const int ib = f.layout->block_of_column(i);
      if (ib == jb) continue;  // diagonal blocks store everything
      const bool stored =
          ib > jb ? f.layout->panel_row_index(jb, i) >= 0
                  : f.layout->panel_col_index(ib, j) >= 0;
      if (!stored) {
        EXPECT_EQ(bm.entry_ptr(i, j), nullptr);
        EXPECT_EQ(bm.value_at(i, j), 0.0);
        ++missing;
      }
    }
  }
  EXPECT_GT(missing, 0) << "test matrix should have unstored positions";
}

TEST(BlockMatrix, PanelAddressingMatchesEntryPtr) {
  // The fast panel pointers and the slow per-entry lookup must agree on
  // every stored cell.
  const auto f = Fixture::make(60, 3, 10, 4);
  BlockMatrix bm(*f.layout);
  const auto& lay = *f.layout;
  for (int b = 0; b < lay.num_blocks(); ++b) {
    const int w = lay.width(b);
    // Diagonal block cells.
    for (int c = 0; c < w; ++c)
      for (int r = 0; r < w; ++r)
        EXPECT_EQ(bm.diag(b) + c * bm.diag_ld(b) + r,
                  bm.entry_ptr(lay.start(b) + r, lay.start(b) + c));
    // L panel cells.
    const auto& rows = lay.panel_rows(b);
    for (int c = 0; c < w; ++c)
      for (std::size_t r = 0; r < rows.size(); ++r)
        EXPECT_EQ(bm.l_panel(b) + c * bm.l_ld(b) + static_cast<int>(r),
                  bm.entry_ptr(rows[r], lay.start(b) + c));
    // U panel cells.
    const auto& cols = lay.panel_cols(b);
    for (std::size_t c = 0; c < cols.size(); ++c)
      for (int r = 0; r < w; ++r)
        EXPECT_EQ(bm.u_panel(b) + static_cast<int>(c) * bm.u_ld(b) + r,
                  bm.entry_ptr(lay.start(b) + r, cols[c]));
  }
}

TEST(BlockMatrix, SizeMatchesLayoutStoredEntries) {
  const auto f = Fixture::make(70, 4, 12, 6);
  BlockMatrix bm(*f.layout);
  EXPECT_EQ(bm.size(), f.layout->stored_entries());
}

TEST(BlockMatrix, ClearZeroesEverything) {
  const auto f = Fixture::make(40, 5, 8, 4);
  BlockMatrix bm(*f.layout);
  bm.assemble(f.a);
  bm.clear();
  for (int j = 0; j < 40; ++j)
    for (int i = 0; i < 40; ++i) EXPECT_EQ(bm.value_at(i, j), 0.0);
}

TEST(BlockMatrix, AssembleRejectsOutOfStructureEntry) {
  // Build a layout from a SPARSER matrix, then try to assemble a matrix
  // with an extra entry outside the predicted structure: once above the
  // diagonal blocks (a U panel column) and once below (an L panel row).
  // The error names the entry.
  auto base = make_zero_free_diagonal(testing::random_sparse(30, 2, 6));
  const auto s = static_symbolic_factorization(base);
  BlockLayout layout(s, find_supernodes(s, 6));
  BlockMatrix bm(layout);

  for (const bool upper : {true, false}) {
    // Find a position outside the structure on that side.
    int oi = -1, oj = -1;
    for (int j = 0; j < 30 && oi < 0; ++j)
      for (int i = 0; i < 30 && oi < 0; ++i) {
        const int ib = layout.block_of_column(i);
        const int jb = layout.block_of_column(j);
        if ((upper ? ib < jb : ib > jb) && bm.entry_ptr(i, j) == nullptr) {
          oi = i;
          oj = j;
        }
      }
    ASSERT_GE(oi, 0) << (upper ? "upper" : "lower");
    std::vector<Triplet> t;
    for (int j = 0; j < 30; ++j)
      for (int k = base.col_begin(j); k < base.col_end(j); ++k)
        t.push_back({base.row_idx()[k], j, base.values()[k]});
    t.push_back({oi, oj, 3.14});
    const auto bigger = SparseMatrix::from_triplets(30, 30, std::move(t));
    try {
      bm.assemble(bigger);
      FAIL() << "entry (" << oi << "," << oj << ") assembled";
    } catch (const CheckError& e) {
      const std::string want = "entry (" + std::to_string(oi) + "," +
                               std::to_string(oj) +
                               ") outside static structure";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace sstar
