// Analytic per-task cost model.
//
// Each Factor(k)/Update(k,j) task's flop counts and message payloads are
// computed exactly from the block layout (they depend only on structure,
// never on numerical values), so parameter sweeps over machines and
// processor counts do not need to re-run numerics. This is the one
// source of flop counts: the kernels in core/numeric.cpp book
// factor_flops/update_flops into FactorStats and onto their trace spans,
// and the per-task forms below price the same formulas from the layout.
#pragma once

#include <cstdint>

#include "blas/flops.hpp"
#include "supernode/block_layout.hpp"

namespace sstar {

/// Flop counts of factoring a w-column block with nr L-panel rows: per
/// column, pivot search + scale (BLAS-1) and the rank-1 panel update
/// (BLAS-2).
blas::FlopCount factor_flops(std::int64_t w, std::int64_t nr);

/// Flop counts of updating nc columns with a w-column block whose L
/// panel has nr rows: the DTRSM (BLAS-3), the DGEMM over the whole L
/// panel (BLAS-3) and the subtraction of its product (BLAS-1). Columns
/// the kernel skips as exactly zero count as run (FactorStats).
blas::FlopCount update_flops(std::int64_t w, std::int64_t nr,
                             std::int64_t nc);

/// factor_flops of supernode k.
blas::FlopCount factor_task_flops(const BlockLayout& lay, int k);

/// update_flops of Update(k, j) over U block (k, j)'s columns; zero when
/// the block is structurally zero.
blas::FlopCount update_task_flops(const BlockLayout& lay, int k, int j);

/// Flop counts of only the (i, j) target-block slice of Update(k, j) —
/// the Update_2D granularity of the 2D code.
blas::FlopCount update2d_task_flops(const BlockLayout& lay, int k, int i,
                                    int j);

/// Bytes of the Factor(k) -> Update(k, *) broadcast payload in the 1D
/// code: diagonal block + L panel + pivot sequence.
double column_block_bytes(const BlockLayout& lay, int k);

/// Bytes of the L data a 2D processor row multicast carries for step k:
/// the portion of the diagonal block + L panel of supernode k stored on
/// one of p_r processor rows (average share).
double l_multicast_bytes(const BlockLayout& lay, int k, int pr);

/// Bytes of the U-panel multicast along a processor column for step k
/// (average share of one of p_c processor columns).
double u_multicast_bytes(const BlockLayout& lay, int k, int pc);

/// Bytes of the pivot-sequence message for step k.
double pivot_bytes(const BlockLayout& lay, int k);

/// Total modeled flops of the whole factorization (sums the above).
blas::FlopCount total_model_flops(const BlockLayout& lay);

}  // namespace sstar
