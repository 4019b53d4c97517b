#include "supernode/partition.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sstar {

std::vector<int> SupernodePartition::block_of_column() const {
  std::vector<int> blk(static_cast<std::size_t>(n()));
  for (int b = 0; b < count(); ++b)
    for (int c = start[b]; c < start[b + 1]; ++c) blk[c] = b;
  return blk;
}

double SupernodePartition::average_width() const {
  return count() == 0 ? 0.0 : static_cast<double>(n()) / count();
}

namespace {

// L structure of column c restricted to rows >= lo (sorted range).
template <typename It>
std::pair<It, It> tail_range(It begin, It end, int lo) {
  return {std::lower_bound(begin, end, lo), end};
}

// Count of elements in sorted [b1,e1) symmetric-difference sorted [b2,e2).
template <typename It>
int symdiff_size(It b1, It e1, It b2, It e2) {
  int d = 0;
  while (b1 != e1 && b2 != e2) {
    if (*b1 == *b2) {
      ++b1;
      ++b2;
    } else if (*b1 < *b2) {
      ++d;
      ++b1;
    } else {
      ++d;
      ++b2;
    }
  }
  d += static_cast<int>((e1 - b1) + (e2 - b2));
  return d;
}

}  // namespace

SupernodePartition find_supernodes(const StaticStructure& s, int max_block) {
  SSTAR_CHECK(max_block >= 1);
  const int n = s.n;
  SupernodePartition p;
  p.start.push_back(0);
  int width = 0;

  auto lrows = [&](int c) {
    return std::make_pair(s.l_rows.begin() + s.l_col_ptr[c],
                          s.l_rows.begin() + s.l_col_ptr[c + 1]);
  };
  auto ucols = [&](int r) {
    return std::make_pair(s.u_cols.begin() + s.u_row_ptr[r],
                          s.u_cols.begin() + s.u_row_ptr[r + 1]);
  };

  for (int c = 0; c < n; ++c) {
    ++width;
    bool boundary = (c == n - 1) || (width >= max_block);
    if (!boundary) {
      // Column c+1 continues the supernode iff
      //   Lrows(c) == {c+1} ∪ Lrows(c+1)  and  Ucols(c) \ {c} == Ucols(c+1).
      auto [lb, le] = lrows(c);
      auto [lb1, le1] = lrows(c + 1);
      const bool l_ok = (le - lb) == (le1 - lb1) + 1 && lb != le &&
                        *lb == c + 1 && std::equal(lb + 1, le, lb1);
      auto [ub, ue] = ucols(c);
      auto [ub1, ue1] = ucols(c + 1);
      // ub points at the diagonal c; row c+1's list starts at c+1.
      const bool u_ok =
          (ue - ub) == (ue1 - ub1) + 1 && std::equal(ub + 1, ue, ub1);
      boundary = !(l_ok && u_ok);
    }
    if (boundary) {
      p.start.push_back(c + 1);
      width = 0;
    }
  }
  return p;
}

SupernodePartition amalgamate(const StaticStructure& s,
                              const SupernodePartition& p, int r,
                              int max_block) {
  if (r <= 0) return p;
  const int nb = p.count();
  SupernodePartition out;
  out.start.push_back(0);

  int b = 0;
  while (b < nb) {
    int group_first = p.start[b];  // first column of the merged group
    int group_end = p.start[b + 1];
    int next = b + 1;
    while (next < nb) {
      const int cand_first = p.start[next];
      const int cand_end = p.start[next + 1];
      if (cand_end - group_first > max_block) break;

      // Structures compared from the end of the candidate onward.
      auto [l1b, l1e] =
          tail_range(s.l_rows.begin() + s.l_col_ptr[group_first],
                     s.l_rows.begin() + s.l_col_ptr[group_first + 1],
                     cand_end);
      auto [l2b, l2e] =
          tail_range(s.l_rows.begin() + s.l_col_ptr[cand_first],
                     s.l_rows.begin() + s.l_col_ptr[cand_first + 1],
                     cand_end);
      auto [u1b, u1e] =
          tail_range(s.u_cols.begin() + s.u_row_ptr[group_first],
                     s.u_cols.begin() + s.u_row_ptr[group_first + 1],
                     cand_end);
      auto [u2b, u2e] =
          tail_range(s.u_cols.begin() + s.u_row_ptr[cand_first],
                     s.u_cols.begin() + s.u_row_ptr[cand_first + 1],
                     cand_end);
      int diff = symdiff_size(l1b, l1e, l2b, l2e) +
                 symdiff_size(u1b, u1e, u2b, u2e);

      // Padding inside the would-be dense triangle: rows/cols of the
      // candidate range missing from the group-leader structure.
      const int budget = r * (cand_end - cand_first);
      {
        auto lb = s.l_rows.begin() + s.l_col_ptr[group_first];
        auto le = s.l_rows.begin() + s.l_col_ptr[group_first + 1];
        auto ub = s.u_cols.begin() + s.u_row_ptr[group_first];
        auto ue = s.u_cols.begin() + s.u_row_ptr[group_first + 1];
        for (int x = cand_first; x < cand_end && diff <= budget; ++x) {
          if (!std::binary_search(lb, le, x)) ++diff;
          if (!std::binary_search(ub, ue, x)) ++diff;
        }
      }
      // The allowance scales with the absorbed width: r extra entries
      // per merged column, the granularity/padding dial of §3.3.
      if (diff > budget) break;
      group_end = cand_end;
      ++next;
    }
    out.start.push_back(group_end);
    b = next;
  }
  SSTAR_CHECK(out.start.back() == p.n());
  return out;
}

}  // namespace sstar
