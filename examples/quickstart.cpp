// Quickstart: assemble a sparse nonsymmetric system, factor it with the
// S* pipeline, solve, and check the residual.
//
//   ./example_quickstart
#include <cmath>
#include <cstdio>
#include <vector>

#include "matrix/sparse.hpp"
#include "solve/solver.hpp"

int main() {
  using namespace sstar;

  // A small convection-diffusion-like operator on a 20x20 grid with an
  // unsymmetric wind term.
  const int nx = 20, ny = 20, n = nx * ny;
  std::vector<Triplet> entries;
  auto idx = [&](int x, int y) { return x + nx * y; };
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      const int c = idx(x, y);
      entries.push_back({c, c, 4.0});
      if (x > 0) entries.push_back({c, idx(x - 1, y), -1.0 - 0.4});
      if (x + 1 < nx) entries.push_back({c, idx(x + 1, y), -1.0 + 0.4});
      if (y > 0) entries.push_back({c, idx(x, y - 1), -1.0 - 0.2});
      if (y + 1 < ny) entries.push_back({c, idx(x, y + 1), -1.0 + 0.2});
    }
  }
  const SparseMatrix a = SparseMatrix::from_triplets(n, n, entries);

  // Factor: transversal -> minimum-degree ordering -> static symbolic
  // factorization -> 2D L/U supernode partitioning -> numeric phase.
  SolverOptions options;  // defaults: BSIZE = 64 (the paper's 25 is
                          // a T3D/T3E choice), amalgamation r = 4
  Solver solver(a, options);
  solver.factorize();

  // Manufactured solution check.
  std::vector<double> want(n);
  for (int i = 0; i < n; ++i) want[i] = std::sin(0.37 * i) + 0.5;
  const std::vector<double> b = a.multiply(want);
  const std::vector<double> x = solver.solve(b);

  double err = 0.0;
  for (int i = 0; i < n; ++i) err = std::max(err, std::fabs(x[i] - want[i]));

  const auto& layout = solver.layout();
  std::printf("n = %d, nnz(A) = %lld\n", n, (long long)a.nnz());
  std::printf("static factor entries : %lld\n",
              (long long)solver.setup().structure.factor_entries());
  std::printf("supernodes            : %d (avg width %.2f)\n",
              layout.num_blocks(), layout.partition().average_width());
  std::printf("BLAS-3 share of flops : %.1f%%\n",
              100.0 * solver.stats().blas3_fraction());
  std::printf("off-diagonal pivots   : %d\n",
              solver.stats().off_diagonal_pivots);
  std::printf("max |x - x*|          : %.3e\n", err);
  std::printf(err < 1e-9 ? "OK\n" : "FAILED\n");
  return err < 1e-9 ? 0 : 1;
}
