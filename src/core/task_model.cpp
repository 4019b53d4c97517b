#include "core/task_model.hpp"

namespace sstar {

blas::FlopCount factor_flops(std::int64_t w, std::int64_t nr) {
  blas::FlopCount f;
  for (std::int64_t ml = 0; ml < w; ++ml) {
    // Pivot search (idamax over the diag tail and, if present, the panel).
    f.blas1 += static_cast<std::uint64_t>(w - ml);
    if (nr > 0) f.blas1 += static_cast<std::uint64_t>(nr);
    // Scaling.
    f.blas1 += static_cast<std::uint64_t>(w - ml - 1 + nr);
    // Rank-1 updates.
    const std::int64_t rest = w - ml - 1;
    if (rest > 0) {
      f.blas2 += static_cast<std::uint64_t>(2 * rest * rest);
      if (nr > 0) f.blas2 += static_cast<std::uint64_t>(2 * nr * rest);
    }
  }
  return f;
}

blas::FlopCount update_flops(std::int64_t w, std::int64_t nr,
                             std::int64_t nc) {
  blas::FlopCount f;
  f.blas3 += static_cast<std::uint64_t>(w * w * nc);       // DTRSM
  f.blas3 += static_cast<std::uint64_t>(2 * nr * nc * w);  // DGEMM
  f.blas1 += static_cast<std::uint64_t>(nr * nc);          // subtract
  return f;
}

blas::FlopCount factor_task_flops(const BlockLayout& lay, int k) {
  return factor_flops(lay.width(k),
                      static_cast<std::int64_t>(lay.panel_rows(k).size()));
}

blas::FlopCount update_task_flops(const BlockLayout& lay, int k, int j) {
  const BlockRef* uref = lay.find_u_block(k, j);
  if (uref == nullptr) return {};
  return update_flops(lay.width(k),
                      static_cast<std::int64_t>(lay.panel_rows(k).size()),
                      uref->count);
}

blas::FlopCount update2d_task_flops(const BlockLayout& lay, int k, int i,
                                    int j) {
  blas::FlopCount f;
  const BlockRef* uref = lay.find_u_block(k, j);
  if (uref == nullptr) return f;
  const std::int64_t w = lay.width(k);
  const std::int64_t nc = uref->count;
  if (i == k) {
    // The DTRSM slice (performed by the processor row owning block row k).
    f.blas3 += static_cast<std::uint64_t>(w * w * nc);
    return f;
  }
  const BlockRef* lref = lay.find_l_block(i, k);
  if (lref == nullptr) return f;
  const std::int64_t mr = lref->count;
  f.blas3 += static_cast<std::uint64_t>(2 * mr * nc * w);
  f.blas1 += static_cast<std::uint64_t>(mr * nc);
  return f;
}

double column_block_bytes(const BlockLayout& lay, int k) {
  const double w = lay.width(k);
  const double nr = static_cast<double>(lay.panel_rows(k).size());
  return 8.0 * w * (w + nr) + 4.0 * w;
}

double l_multicast_bytes(const BlockLayout& lay, int k, int pr) {
  const double w = lay.width(k);
  const double nr = static_cast<double>(lay.panel_rows(k).size());
  return 8.0 * w * (w + nr) / pr + 4.0 * w;
}

double u_multicast_bytes(const BlockLayout& lay, int k, int pc) {
  const double w = lay.width(k);
  const double nc = static_cast<double>(lay.panel_cols(k).size());
  return 8.0 * w * nc / pc;
}

double pivot_bytes(const BlockLayout& lay, int k) {
  return 4.0 * lay.width(k);
}

blas::FlopCount total_model_flops(const BlockLayout& lay) {
  blas::FlopCount f;
  for (int k = 0; k < lay.num_blocks(); ++k) {
    f += factor_task_flops(lay, k);
    for (const BlockRef& uref : lay.u_blocks(k))
      f += update_task_flops(lay, k, uref.block);
  }
  return f;
}

}  // namespace sstar
