// Floating-point operation counts by BLAS level.
//
// The counts are a static property of the block structure: the task
// model (core/task_model) derives each Factor(k)/Update(k, j) task's
// count from the block widths and panel sizes, the numeric kernels book
// those counts in FactorStats and on their trace spans, and the machine
// model in src/sim converts them into virtual execution time using the
// paper's measured BLAS-2/BLAS-3 rates (DGEMV vs DGEMM). The kernels in
// src/blas count nothing themselves.
#pragma once

#include <cstdint>

namespace sstar::blas {

/// Flop counts split by BLAS level, matching the cost model of §6.1 of
/// the paper (w2 = BLAS-1/2 rate, w3 = BLAS-3 rate).
struct FlopCount {
  std::uint64_t blas1 = 0;  ///< vector ops: pivot search, scal, subtract
  std::uint64_t blas2 = 0;  ///< matrix-vector: ger
  std::uint64_t blas3 = 0;  ///< matrix-matrix: gemm, trsm

  std::uint64_t total() const { return blas1 + blas2 + blas3; }

  FlopCount& operator+=(const FlopCount& o) {
    blas1 += o.blas1;
    blas2 += o.blas2;
    blas3 += o.blas3;
    return *this;
  }
};

}  // namespace sstar::blas
