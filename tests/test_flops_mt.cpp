// Thread-local flop accounting: concurrent kernels accumulate without
// interference, per-thread regions see only their own thread's work, and
// the merged total is exact once threads are quiescent.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "blas/dense_blas.hpp"
#include "blas/flops.hpp"

namespace sstar::blas {
namespace {

// dscal(n) counts n BLAS-1 flops (see dense_blas.cpp).
void burn_dscal(int n, int reps) {
  std::vector<double> x(static_cast<std::size_t>(n), 1.0);
  for (int r = 0; r < reps; ++r) dscal(n, 0.5, x.data());
}

TEST(FlopsThreaded, MergedCountIsExactAcrossThreads) {
  reset_flop_counter();
  constexpr int kThreads = 4;
  constexpr int kN = 64;
  constexpr int kReps = 100;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([] { burn_dscal(kN, kReps); });
  for (auto& th : pool) th.join();
  // Exited threads fold into the retired total; nothing is lost.
  const FlopCount merged = merged_flop_count();
  EXPECT_EQ(merged.blas1, 1ULL * kN * kReps * kThreads);
  EXPECT_EQ(merged.blas2, 0u);
  EXPECT_EQ(merged.blas3, 0u);
}

TEST(FlopsThreaded, RegionSeesOnlyOwnThread) {
  reset_flop_counter();
  const FlopRegion region;
  std::thread worker([] { burn_dscal(32, 10); });
  worker.join();
  // The worker's 320 flops are in the merged total but not in this
  // thread's region.
  EXPECT_EQ(region.delta().total(), 0u);
  EXPECT_EQ(merged_flop_count().blas1, 32ULL * 10);

  burn_dscal(8, 1);
  EXPECT_EQ(region.delta().blas1, 8u);
  EXPECT_EQ(merged_flop_count().blas1, 32ULL * 10 + 8);
}

TEST(FlopsThreaded, ResetClearsEverything) {
  burn_dscal(16, 2);
  std::thread worker([] { burn_dscal(16, 2); });
  worker.join();
  EXPECT_GT(merged_flop_count().total(), 0u);
  reset_flop_counter();
  EXPECT_EQ(merged_flop_count().total(), 0u);
  EXPECT_EQ(flop_counter().total(), 0u);
}

}  // namespace
}  // namespace sstar::blas
