// Kernel backend microbenchmarks: GF/s per kernel x shape x backend.
//
// The S* design premise (§2) is that DGEMM beats BLAS-2 on cached blocks
// (103 vs 85 MFLOPS on T3D; 388 vs 255 on T3E at BSIZE = 25). This
// harness measures the dense kernels of the factorization on the host
// CPU — dgemm and dtrsm_lower_unit as Update(k, j) runs them, and dger,
// the BLAS-2 kernel Factor(k) runs and the machine model's blas2_rate
// prices — once per kernel BACKEND (scalar reference, plus every SIMD
// backend the build carries and the CPU supports — see DESIGN.md §12),
// and reports the speedup of each backend over scalar. It is the
// auditable evidence for the SIMD dispatch layer's performance gate:
// the widest backend must clear 2x scalar DGEMM throughput on mid/large
// tiles.
//
// Output: a text table on stdout and machine-readable JSON (default
// results/bench_kernels.json, override with --json=<path>, the one
// flag).
//
// Methodology: each (kernel, shape, backend) cell runs enough
// iterations to fill ~80 ms, takes the BEST of 3 timed repetitions
// (min filters scheduler noise on the single-core CI host), and
// touches the same buffers each iteration so data stays cache-hot —
// matching how Update(k, j) reuses a supernode panel.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "blas/kernel_backend.hpp"
#include "common.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using sstar::Rng;
using sstar::TextTable;
using sstar::WallTimer;
namespace blas = sstar::blas;

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  Rng r(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = r.uniform(-1.0, 1.0);
  return v;
}

struct Shape {
  const char* tag;  // e.g. "25x25x25"
  int m, n, k;
};

struct Cell {
  std::string kernel;
  std::string shape;
  std::string backend;
  double gflops = 0.0;
  double speedup = 1.0;  // vs scalar, same kernel and shape
};

/// Time `body` (whose one call costs `flops` flops): calibrate an
/// iteration count to ~80 ms, then best-of-3 repetitions.
template <class F>
double measure_gflops(double flops, F&& body) {
  body();  // warm up caches and the backend dispatch
  int iters = 1;
  for (;;) {
    WallTimer t;
    for (int i = 0; i < iters; ++i) body();
    const double s = t.seconds();
    if (s > 0.02 || iters > (1 << 24)) {
      iters = std::max(1, static_cast<int>(iters * 0.08 / std::max(s, 1e-9)));
      break;
    }
    iters *= 4;
  }
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer t;
    for (int i = 0; i < iters; ++i) body();
    const double s = t.seconds();
    best = std::max(best, flops * iters / std::max(s, 1e-12) / 1e9);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  const auto backends = blas::supported_kernel_backends();
  std::printf("kernel backends: %s\n", blas::kernel_backend_summary().c_str());

  // Shapes: BSIZE = 25 (the paper's supernode cap), register-tile
  // boundary sizes, a mid tile, and panel-shaped GEMMs as Update(k, j)
  // issues them (tall-skinny L times short-wide U).
  const Shape gemm_shapes[] = {
      {"16x16x16", 16, 16, 16},   {"25x25x25", 25, 25, 25},
      {"32x32x32", 32, 32, 32},   {"64x64x64", 64, 64, 64},
      {"128x128x128", 128, 128, 128}, {"256x25x25", 256, 25, 25},
      {"25x256x25", 25, 256, 25},
  };
  const int ger_sizes[] = {16, 25, 32, 64, 128};
  const int trsm_sizes[] = {16, 25, 64};

  std::vector<Cell> cells;
  for (const blas::KernelBackend kb : backends) {
    const blas::KernelOps& ops = *blas::kernel_ops_for(kb);
    for (const Shape& s : gemm_shapes) {
      const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, 1);
      const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, 2);
      auto c = random_vec(static_cast<std::size_t>(s.m) * s.n, 3);
      Cell cell{"dgemm", s.tag, blas::kernel_backend_name(kb), 0.0, 1.0};
      cell.gflops = measure_gflops(2.0 * s.m * s.n * s.k, [&] {
        ops.dgemm(s.m, s.n, s.k, 1.0, a.data(), s.m, b.data(), s.k, 1.0,
                  c.data(), s.m);
      });
      cells.push_back(cell);
    }
    for (const int n : ger_sizes) {
      const auto xg = random_vec(static_cast<std::size_t>(n), 7);
      const auto yg = random_vec(static_cast<std::size_t>(n), 8);
      auto ag = random_vec(static_cast<std::size_t>(n) * n, 9);
      Cell gcell{"dger", std::to_string(n) + "x" + std::to_string(n),
                 blas::kernel_backend_name(kb), 0.0, 1.0};
      gcell.gflops = measure_gflops(2.0 * n * n, [&] {
        ops.dger(n, n, 1.0, xg.data(), yg.data(), ag.data(), n, 1, 1);
      });
      cells.push_back(gcell);
    }
    for (const int n : trsm_sizes) {
      const auto a = random_vec(static_cast<std::size_t>(n) * n, 10);
      auto b = random_vec(static_cast<std::size_t>(n) * n, 11);
      Cell cell{"dtrsm_lower_unit",
                std::to_string(n) + "x" + std::to_string(n),
                blas::kernel_backend_name(kb), 0.0, 1.0};
      cell.gflops = measure_gflops(1.0 * n * n * n, [&] {
        ops.dtrsm_lower_unit(n, n, a.data(), n, b.data(), n);
      });
      cells.push_back(cell);
    }
  }

  // Speedup vs the scalar cell of the same kernel and shape.
  for (Cell& c : cells) {
    if (c.backend == "scalar") continue;
    for (const Cell& s : cells)
      if (s.backend == "scalar" && s.kernel == c.kernel &&
          s.shape == c.shape && s.gflops > 0.0)
        c.speedup = c.gflops / s.gflops;
  }

  TextTable table("kernel backends: GF/s (speedup vs scalar)");
  table.set_header({"kernel", "shape", "backend", "GF/s", "speedup"});
  for (const Cell& c : cells)
    table.add_row({c.kernel, c.shape, c.backend, sstar::fmt_double(c.gflops, 2),
                   c.backend == "scalar"
                       ? std::string("1.00x")
                       : sstar::fmt_double(c.speedup, 2) + "x"});
  table.print();

  // Best DGEMM speedup on mid/large square tiles: the dispatch layer's
  // performance gate (>= 2x on SIMD-capable hosts).
  double best_gemm_speedup = 1.0;
  for (const Cell& c : cells)
    if (c.kernel == "dgemm" && c.shape != "16x16x16" &&
        c.shape != "25x25x25")
      best_gemm_speedup = std::max(best_gemm_speedup, c.speedup);
  std::printf("best DGEMM speedup vs scalar (mid/large tiles): %.2fx\n",
              best_gemm_speedup);

  sstar::util::JsonWriter w;
  w.begin_object().field("backends", blas::kernel_backend_summary());
  w.field("best_dgemm_speedup_midlarge", best_gemm_speedup).key("cells");
  w.begin_array();
  for (const Cell& c : cells) {
    w.begin_object().field("kernel", c.kernel).field("shape", c.shape);
    w.field("backend", c.backend).field("gflops", c.gflops);
    w.field("speedup_vs_scalar", c.speedup).end_object();
  }
  w.end_array().end_object();
  sstar::bench::write_results("kernels", json_path, w);
  return 0;
}
