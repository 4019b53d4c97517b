// Floating-point operation accounting.
//
// Every kernel in src/blas updates these counters. The machine model in
// src/sim converts per-task flop deltas into virtual execution time using
// the paper's measured BLAS-2/BLAS-3 rates (DGEMV vs DGEMM), so accurate
// per-level accounting is load-bearing for the reproduction, not just
// telemetry.
//
// Counters are THREAD-LOCAL: kernels running concurrently on the real
// executor's worker threads (src/exec) accumulate without contention or
// data races. flop_counter() returns the calling thread's counter, so a
// FlopRegion measures exactly the kernels the current thread executed —
// which is what the per-task accounting wants, since a task runs wholly
// on one thread. merged_flop_count() folds every thread's counter (live
// and exited) into one process-wide total; reset_flop_counter() zeroes
// them all and must only be called while no other thread is inside a
// BLAS kernel (between runs, in tests).
#pragma once

#include <cstdint>

namespace sstar::blas {

/// Flop counters split by BLAS level, matching the cost model of §6.1
/// of the paper (w2 = BLAS-1/2 rate, w3 = BLAS-3 rate).
struct FlopCount {
  std::uint64_t blas1 = 0;  ///< vector ops: axpy, scal, dot, swaps
  std::uint64_t blas2 = 0;  ///< matrix-vector: ger, trsv
  std::uint64_t blas3 = 0;  ///< matrix-matrix: gemm, trsm

  std::uint64_t total() const { return blas1 + blas2 + blas3; }

  FlopCount operator-(const FlopCount& o) const {
    return {blas1 - o.blas1, blas2 - o.blas2, blas3 - o.blas3};
  }
  FlopCount& operator+=(const FlopCount& o) {
    blas1 += o.blas1;
    blas2 += o.blas2;
    blas3 += o.blas3;
    return *this;
  }
};

/// The CALLING THREAD's counter. Read it to snapshot, subtract snapshots
/// to get the cost of a region executed on this thread.
FlopCount& flop_counter();

/// Reset every thread's counter (and the retired-thread total) to zero.
/// Quiescent use only: no concurrent kernel execution.
void reset_flop_counter();

/// Process-wide total: the sum of all live threads' counters plus the
/// accumulated counts of threads that have exited. Quiescent reads are
/// exact; concurrent reads are approximate.
FlopCount merged_flop_count();

/// RAII region measurement: delta() gives flops accumulated by the
/// current thread since construction.
class FlopRegion {
 public:
  FlopRegion() : start_(flop_counter()) {}
  FlopCount delta() const { return flop_counter() - start_; }

 private:
  FlopCount start_;
};

}  // namespace sstar::blas
